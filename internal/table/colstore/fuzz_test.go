package colstore

import (
	"math"
	"testing"
	"time"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// FuzzConvert decodes arbitrary bytes into a small table of mixed kinds
// and null patterns, then checks the two ways a table becomes columns.
// The Builder (the decoders' route) takes every table: what it builds
// must answer Len, SizeBytes, Fingerprint and Rows exactly as the row
// table does, and convert for free exactly when the row table converts.
// FromTable (the row route) may decline: if it accepts the table,
// ToTable must reproduce it exactly (same schema, same cells, same
// kinds), and selection must never panic.
func FuzzConvert(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte("hello columnar world"))
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00, 0x80, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := decodeTable(data)
		b, ok := FromTable(tb)
		built := rebuilt(tb)
		if built.Len() != tb.Len() || built.SizeBytes() != tb.SizeBytes() || built.Fingerprint() != tb.Fingerprint() {
			t.Fatalf("built table answers len %d size %d fingerprint %s, row table %d %d %s", built.Len(),
				built.SizeBytes(), built.Fingerprint(), tb.Len(), tb.SizeBytes(), tb.Fingerprint())
		}
		if bb, bok := FromTable(built); bok != ok || (bok && bb != built.Columns()) {
			t.Fatalf("built table converts=%v (its own batch: %v), row table converts=%v", bok, bok && bb == built.Columns(), ok)
		}
		for i, row := range tb.Rows() {
			for j, want := range row {
				if got := built.Rows()[i][j]; got != want {
					t.Fatalf("built table row %d col %d: %v %q, want %v %q", i, j, got.Kind(), got, want.Kind(), want)
				}
			}
		}
		if !ok {
			return
		}
		if b.Len() != tb.Len() {
			t.Fatalf("batch length %d != table length %d", b.Len(), tb.Len())
		}
		back := b.ToTable()
		if !back.Equal(tb) {
			t.Fatalf("round trip changed the table:\nin:  %v\nout: %v", tb, back)
		}
		// Cell kinds must survive exactly — Equal uses Compare, which
		// treats some cross-kind pairs as equal.
		for i, row := range tb.Rows() {
			for j, want := range row {
				if got := back.Rows()[i][j]; got.Kind() != want.Kind() {
					t.Fatalf("row %d col %d: kind %v -> %v", i, j, want.Kind(), got.Kind())
				}
			}
		}
		if b.Len() > 0 {
			sel := NewBitmap(b.Len())
			for i := 0; i < b.Len(); i += 2 {
				sel.Set(i)
			}
			if got := b.SelectBitmap(sel); got.Len() != sel.Count() {
				t.Fatalf("SelectBitmap length %d, want %d", got.Len(), sel.Count())
			}
		}
	})
}

// decodeTable builds a deterministic table from fuzz bytes: the first
// byte picks the column count (1..4), each subsequent byte contributes
// one cell whose kind and payload derive from its bits. Producing some
// tables FromTable must decline (mixed kinds, Time cells) is the point —
// the fuzzer probes both sides of the eligibility check.
func decodeTable(data []byte) *table.Table {
	ncols := 1
	if len(data) > 0 {
		ncols = int(data[0])%4 + 1
		data = data[1:]
	}
	names := []string{"c0", "c1", "c2", "c3"}[:ncols]
	tb := table.New(schema.MustFromNames(names...))
	row := make(table.Row, 0, ncols)
	for _, by := range data {
		switch by % 6 {
		case 0:
			row = append(row, value.VNull)
		case 1:
			row = append(row, value.NewBool(by&0x40 != 0))
		case 2:
			row = append(row, value.NewInt(int64(int8(by))))
		case 3:
			f := float64(int8(by)) / 4
			if by == 0x8D {
				f = math.NaN()
			}
			row = append(row, value.NewFloat(f))
		case 4:
			row = append(row, value.NewString(string(rune(by))))
		case 5:
			// Time cells are deliberately ineligible for columnar
			// conversion; generating them exercises the decline path.
			row = append(row, value.NewTime(timeFromByte(by)))
		}
		if len(row) == ncols {
			tb.Append(row)
			row = make(table.Row, 0, ncols)
		}
	}
	return tb
}

func timeFromByte(by byte) time.Time {
	return time.Unix(int64(by)*3600, 0).UTC()
}

// rebuilt pushes a row table through the Builder.
func rebuilt(tb *table.Table) *table.Table {
	b := NewBuilder(tb.Schema())
	for _, r := range tb.Rows() {
		b.Append(r)
	}
	return b.Table()
}
