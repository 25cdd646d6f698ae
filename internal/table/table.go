// Package table implements the data object: the relation that flows
// between tasks in a ShareInsights pipeline.
//
// The paper makes no distinction between data sources and data sinks
// ("the system internally makes no differentiation between a data source
// and a data sink", §3.4) — both are simply tables with a schema, and a
// sink of one flow can be the source of another.
package table

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"shareinsights/internal/schema"
	"shareinsights/internal/value"
)

// Row is one tuple of a table. Cells align with the table's schema.
type Row []value.V

// Clone returns an independent copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is an in-memory relation: a schema plus its cells. The cells
// live in one of two layouts. A row-backed table (New, FromRows) stores
// rows. A column-backed table (FromColumns) stores column vectors — what
// the format decoders and the vectorized kernels produce — and rows are
// a view over them, materialized once, on the first call that needs row
// access (Rows and everything built on it: the row kernels, the
// encoders, the cube). Len, SizeBytes, CloneShallow and Fingerprint
// answer from the vectors.
//
// A table is safe for concurrent readers in either layout. Mutating one
// (Append, Sort) is for its owner only; a column-backed table first
// materializes its rows and drops the vectors, which no longer describe
// it.
type Table struct {
	schema *schema.Schema
	rows   []Row
	// cols is the storage of a column-backed table (nil when
	// row-backed); view guards the one materialization of rows from it.
	cols Columns
	view sync.Once
}

// Columns is the column-major storage behind a column-backed table. It
// is declared here, not where it is implemented (colstore.Batch),
// because colstore imports this package; reading a row out of the
// vectors is all a Table needs of them. Implementations are immutable.
type Columns interface {
	// Len is the number of rows.
	Len() int
	// Row copies the cells of row i into dst, which has one element per
	// schema column.
	Row(i int, dst []value.V)
}

// New returns an empty table with the given schema.
func New(s *schema.Schema) *Table {
	return &Table{schema: s}
}

// FromRows builds a table from pre-built rows. Each row must have exactly
// one cell per schema column.
func FromRows(s *schema.Schema, rows []Row) (*Table, error) {
	for i, r := range rows {
		if len(r) != s.Len() {
			return nil, fmt.Errorf("table: row %d has %d cells, schema has %d columns", i, len(r), s.Len())
		}
	}
	return &Table{schema: s, rows: rows}, nil
}

// FromColumns returns a column-backed table over cols, which must hold
// one column per schema column. Nothing is copied.
func FromColumns(s *schema.Schema, cols Columns) *Table {
	return &Table{schema: s, cols: cols}
}

// Columns returns the column storage of a column-backed table, nil for
// a row-backed one.
func (t *Table) Columns() Columns { return t.cols }

// Schema returns the table's schema.
func (t *Table) Schema() *schema.Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int {
	if t.cols != nil {
		return t.cols.Len()
	}
	return len(t.rows)
}

// Rows returns the row slice, materializing it first when the table is
// column-backed (one flat cell allocation plus the row headers, once).
// Callers must treat it as read-only unless they own the table: the
// slice aliases the table's storage, so sorting it, growing it, or
// replacing row headers mutates the table in place — and any snapshot
// (cache entry, shared catalog copy) holding the same *Table. Holders of
// long-lived references should store a CloneShallow instead, which is
// immune to those structural mutations (cell values themselves are
// immutable).
func (t *Table) Rows() []Row {
	if t.cols != nil {
		t.view.Do(func() { t.rows = t.materialize(t.cols.Len()) })
	}
	return t.rows
}

// materialize builds the first n rows of a column-backed table: one flat
// cell slab plus the row headers.
func (t *Table) materialize(n int) []Row {
	w := t.schema.Len()
	cells := make([]value.V, n*w)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
		t.cols.Row(i, rows[i])
	}
	return rows
}

// own prepares the table for structural mutation: a column-backed table
// becomes row-backed, because its vectors are shared with every clone
// and would no longer match the rows.
func (t *Table) own() {
	if t.cols != nil {
		t.Rows()
		t.cols = nil
	}
}

// CloneShallow returns a copy that shares cell storage with t but is
// insulated from structural mutation of the original — Sort, Append, or
// writes through the Rows() slice: a fresh row-header slice for a
// row-backed table, the same (immutable) vectors for a column-backed
// one. It avoids Clone's per-cell copy; it is NOT insulated from a
// caller overwriting cells inside an aliased Row. Caches snapshotting
// tables they do not own (last-good source snapshots, the shared
// catalog) use it as a cheap copy-on-write boundary.
//
// The clone of a column-backed table shares the vectors, not the row
// view: each of the two materializes its own cells if and when something
// asks it for Rows(), and keeps them beside the vectors from then on.
// That is the price of clones that never lock against each other; a
// snapshot that is only held, or read by the columnar kernels, never
// pays it.
func (t *Table) CloneShallow() *Table {
	if t.cols != nil {
		return &Table{schema: t.schema, cols: t.cols}
	}
	return &Table{schema: t.schema, rows: append([]Row(nil), t.rows...)}
}

// Row returns the i'th row.
func (t *Table) Row(i int) Row { return t.Rows()[i] }

// Append adds a row. It panics if the arity is wrong — appends are always
// produced by operators that already know the schema.
func (t *Table) Append(r Row) {
	if len(r) != t.schema.Len() {
		panic(fmt.Sprintf("table: append arity %d != schema %d", len(r), t.schema.Len()))
	}
	t.own()
	t.rows = append(t.rows, r)
}

// AppendValues adds a row built from the given cells.
func (t *Table) AppendValues(cells ...value.V) { t.Append(Row(cells)) }

// Cell returns the value at (row, named column); the null value if the
// column does not exist.
func (t *Table) Cell(row int, col string) value.V {
	i := t.schema.Index(col)
	if i < 0 {
		return value.VNull
	}
	return t.Rows()[row][i]
}

// Column returns all values of the named column in row order.
func (t *Table) Column(col string) ([]value.V, error) {
	i := t.schema.Index(col)
	if i < 0 {
		return nil, fmt.Errorf("table: column %q not found", col)
	}
	rows := t.Rows()
	out := make([]value.V, len(rows))
	for r, row := range rows {
		out[r] = row[i]
	}
	return out, nil
}

// Clone returns a deep copy (rows are copied; values are immutable).
func (t *Table) Clone() *Table {
	src := t.Rows()
	rows := make([]Row, len(src))
	for i, r := range src {
		rows[i] = r.Clone()
	}
	return &Table{schema: t.schema.Clone(), rows: rows}
}

// Project returns a new table with only the named columns, in order.
func (t *Table) Project(names ...string) (*Table, error) {
	idx, err := t.schema.Require(names...)
	if err != nil {
		return nil, err
	}
	s, err := t.schema.Project(names...)
	if err != nil {
		return nil, err
	}
	src := t.Rows()
	out := &Table{schema: s, rows: make([]Row, len(src))}
	for r, row := range src {
		nr := make(Row, len(idx))
		for c, i := range idx {
			nr[c] = row[i]
		}
		out.rows[r] = nr
	}
	return out, nil
}

// SortKey describes one sort criterion.
type SortKey struct {
	Column string
	Desc   bool
}

// Sort sorts the table in place by the given keys (stable).
func (t *Table) Sort(keys ...SortKey) error {
	type bound struct {
		idx  int
		desc bool
	}
	bounds := make([]bound, len(keys))
	for i, k := range keys {
		j := t.schema.Index(k.Column)
		if j < 0 {
			return fmt.Errorf("table: sort column %q not found", k.Column)
		}
		bounds[i] = bound{idx: j, desc: k.Desc}
	}
	t.own()
	sort.SliceStable(t.rows, func(a, b int) bool {
		for _, k := range bounds {
			c := value.Compare(t.rows[a][k.idx], t.rows[b][k.idx])
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

// Head returns a new table with at most n leading rows: sharing row
// storage with a row-backed t, and building only those n rows from a
// column-backed one.
func (t *Table) Head(n int) *Table {
	if l := t.Len(); n > l {
		n = l
	}
	if n < 0 {
		n = 0
	}
	if t.cols != nil {
		return &Table{schema: t.schema, rows: t.materialize(n)}
	}
	return &Table{schema: t.schema, rows: t.rows[:n]}
}

// SizeBytes estimates the in-memory footprint of the table. The DAG
// optimizer and the E6 transfer-ablation bench use it to cost shipping a
// data object to the client-side cube.
func (t *Table) SizeBytes() int {
	n := 0
	t.eachRow(func(r Row) {
		for _, v := range r {
			n += v.Size()
		}
	})
	return n
}

// eachRow calls fn with every row in order without materializing a
// column-backed table: its rows pass through one scratch row, which fn
// must not retain.
func (t *Table) eachRow(fn func(Row)) {
	if t.cols == nil {
		for _, r := range t.rows {
			fn(r)
		}
		return
	}
	scratch := make(Row, t.schema.Len())
	for i, n := 0, t.cols.Len(); i < n; i++ {
		t.cols.Row(i, scratch)
		fn(scratch)
	}
}

// Format renders the table as an aligned text grid — the representation
// the data explorer uses ("runs the dashboard in a headless mode and
// displays the data in a tabular format", §4.4). At most maxRows rows are
// shown; maxRows <= 0 means all.
func (t *Table) Format(maxRows int) string {
	names := t.schema.Names()
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

// Fingerprint returns a stable content hash of the table (schema plus
// every cell, order-sensitive). The incremental-execution cache uses it
// as a source node's signature: same payload, same fingerprint.
func (t *Table) Fingerprint() string {
	h := value.HashString(value.HashSeed, t.schema.String())
	t.eachRow(func(r Row) { h = value.HashRow(h, r) })
	return strconv.FormatUint(h, 16)
}

// Equal reports whether two tables have equal schemas and identical rows
// in the same order. Integration tests use it for golden comparisons.
func (t *Table) Equal(o *Table) bool {
	if !t.schema.Equal(o.schema) || t.Len() != o.Len() {
		return false
	}
	a, b := t.Rows(), o.Rows()
	for i := range a {
		for j := range a[i] {
			if !value.Equal(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}
