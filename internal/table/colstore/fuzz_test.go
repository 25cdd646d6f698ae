package colstore

import (
	"bytes"
	"math"
	"strconv"
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
// kinds), and selection must never panic. The Builder codes string
// columns with a dictionary and FromTable never does, so the comparison
// is also coded against never-coded: decodeTable's repeat factor grows
// tables past the dictionary floor with string columns that stay coded
// (few values, or many values each repeated) and that revert mid-build
// (every cell new), and a sort by the first column must come out the
// same from both.
func FuzzConvert(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte("hello columnar world"))
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00, 0x80, 0x7F})
	// 0x8E is a string unique to its cell, 0xD6 one shared by 16 replays,
	// 0x04 one of a few dozen, 0x02 an int, 0x00 a null.
	f.Add([]byte{0, 3, 0x8E, 0x8E, 0x8E})                               // 1,536 distinct strings: reverts at the floor
	f.Add(append([]byte{0, 3}, bytes.Repeat([]byte{0xD6}, 64)...))      // 2,048 strings 16 times each: coded above the floor
	f.Add(append([]byte{1, 3}, bytes.Repeat([]byte{0x8E, 0x04}, 3)...)) // a reverting column beside a coded one
	f.Add(append([]byte{1, 3}, bytes.Repeat([]byte{0x00, 0x8E}, 3)...)) // an all-null column beside one that reverts
	f.Add([]byte{0, 2, 0x8E, 0x8E, 0x02})                               // strings, then an int: boxes a coded column
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
		if bb, _ := FromTable(built); b.Len() > 0 {
			by := []table.SortKey{{Column: "c0", Desc: true}}
			plain, err1 := sortBatch(b, by)
			coded, err2 := sortBatch(bb, by)
			if err1 != nil || err2 != nil || !plain.ToTable().Equal(coded.ToTable()) {
				t.Fatalf("sort by c0 differs between the converted and the built batch (errors %v, %v)", err1, err2)
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
// byte picks the column count (1..4), the second how many times the
// remaining bytes (at most 64 of them, when repeated) are replayed — 1,
// 64 or 512 — and each byte of each replay contributes one cell whose
// kind and payload derive from its bits. A string cell is one of a few
// dozen values, or unique to its cell (high bits 10), or shared by 16
// consecutive replays of its byte (high bits 11). Producing some tables
// FromTable must decline (mixed kinds, Time cells) is the point — the
// fuzzer probes both sides of the eligibility check.
func decodeTable(data []byte) *table.Table {
	ncols, reps := 1, 1
	if len(data) > 0 {
		ncols = int(data[0])%4 + 1
		data = data[1:]
	}
	if len(data) > 0 {
		reps = []int{1, 1, 64, 512}[data[0]%4]
		data = data[1:]
		if reps > 1 && len(data) > 64 {
			data = data[:64]
		}
	}
	names := []string{"c0", "c1", "c2", "c3"}[:ncols]
	tb := table.New(schema.MustFromNames(names...))
	row := make(table.Row, 0, ncols)
	for rep := 0; rep < reps; rep++ {
		for pos, by := range data {
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
				s := string(rune(by))
				switch by & 0xC0 {
				case 0x80:
					s = "u" + strconv.Itoa(rep*len(data)+pos)
				case 0xC0:
					s = "m" + strconv.Itoa(rep/16*len(data)+pos)
				}
				row = append(row, value.NewString(s))
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
