package table_test

import (
	"fmt"
	"strings"
	"testing"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/value"
)

// oracleFormat is Table.Format as it was before it read cells through
// the columns, kept verbatim as the reference: it materializes every
// row and builds a string per shown cell.
func oracleFormat(t *table.Table, maxRows int) string {
	names := t.Schema().Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	rows := t.Rows()
	truncated := 0
	if maxRows > 0 && len(rows) > maxRows {
		truncated = len(rows) - maxRows
		rows = rows[:maxRows]
	}
	cells := make([][]string, len(rows))
	for r, row := range rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			s := v.String()
			cells[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(fields []string) {
		for c, f := range fields {
			if c > 0 {
				b.WriteString("  ")
			}
			b.WriteString(f)
			if c < len(fields)-1 { // no trailing padding after the last column
				for p := len(f); p < widths[c]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	sep := make([]string, len(names))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range cells {
		writeRow(row)
	}
	if truncated > 0 {
		fmt.Fprintf(&b, "... (%d more rows)\n", truncated)
	}
	return b.String()
}

// TestFormatMatchesOracle holds Format byte for byte to the old one on
// the fingerprint golden tables (nulls, every kind, cells wider than
// their header, no rows, no columns) and a wide-cell table, row- and
// column-backed, shown whole and cut at every length.
func TestFormatMatchesOracle(t *testing.T) {
	tables := goldenTables()
	wide := table.New(schema.MustFromNames("id", "a_long_header", "note"))
	wide.AppendValues(value.NewInt(123456789), value.NewString("x"), value.VNull)
	wide.AppendValues(value.VNull, value.NewFloat(2.5), value.NewString("a note wider than its header"))
	tables["wide"] = wide
	for name, tb := range tables {
		for _, v := range []*table.Table{tb, columnBacked(tb)} {
			for max := -1; max <= v.Len()+1; max++ {
				got := v.Format(max)
				if want := oracleFormat(v, max); got != want {
					t.Fatalf("%s Format(%d):\ngot:\n%s\nwant:\n%s", name, max, got, want)
				}
			}
		}
	}
}

// TestFormatReadsOnlyShownRows: Format(10) of a column-backed table
// costs the same objects at 1,000 rows as at 100,000.
func TestFormatReadsOnlyShownRows(t *testing.T) {
	build := func(n int) *table.Table {
		b := colstore.NewBuilder(schema.MustFromNames("id", "region", "amount"))
		regions := []string{"north", "south", "east", "west"}
		for i := 0; i < n; i++ {
			b.Append(table.Row{value.NewInt(int64(i)), value.NewString(regions[i%4]), value.NewFloat(float64(i) / 4)})
		}
		return b.Table()
	}
	small, large := build(1_000), build(100_000)
	if large.Columns() == nil {
		t.Fatal("the builder's table is not column-backed")
	}
	allocs := func(tb *table.Table) float64 { return testing.AllocsPerRun(5, func() { _ = tb.Format(10) }) }
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("Format(10) takes %.0f objects at 1,000 rows, %.0f at 100,000", a, b)
	}
	if !strings.HasSuffix(large.Format(10), "... (99990 more rows)\n") {
		t.Errorf("Format(10) of 100,000 rows does not end with the count of the rest:\n%s", large.Format(10))
	}
}
