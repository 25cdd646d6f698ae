package colstore

import (
	"fmt"
	"math"
	"slices"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// Builder accumulates rows straight into column vectors — how the
// format decoders produce a column-backed table without building a row
// per record. A column's kind is fixed by its first non-null cell
// (int64, float64, string or bool, with a null bitmap allocated on the
// first null); the moment a column mixes kinds or meets a time it is
// re-boxed as []value.V, which keeps every cell exact but sends the
// table to the row kernels (see FromTable). A column that only ever
// sees nulls stores nothing.
type Builder struct {
	schema *schema.Schema
	cols   []*Vec
	n      int
}

// NewBuilder returns a builder for tables of schema s. Vectors grow by
// append as rows arrive: nothing is sized from a count the payload
// merely claims (a line count, a header field), so what a decode
// allocates is bounded by the rows it really produces.
func NewBuilder(s *schema.Schema) *Builder {
	cols := make([]*Vec, s.Len())
	for i := range cols {
		cols[i] = &Vec{}
	}
	return &Builder{schema: s, cols: cols}
}

// Append adds one row. The slice is read, not retained, so callers can
// refill one scratch row per record.
func (b *Builder) Append(row []value.V) {
	if len(row) != len(b.cols) {
		panic(fmt.Sprintf("colstore: append arity %d != schema %d", len(row), len(b.cols)))
	}
	for c, cell := range row {
		b.appendCell(b.cols[c], cell)
	}
	b.n++
}

func (b *Builder) appendCell(v *Vec, cell value.V) {
	i := b.n
	k := cell.Kind()
	switch {
	case v.kind == value.Null:
		if k == value.Null {
			return
		}
		b.start(v, k)
	case k != value.Null && k != v.kind && v.kind != anyKind:
		box(v, i)
	}
	if k == value.Null {
		if v.nulls == nil {
			v.nulls = &Bitmap{}
		}
		v.nulls.grow(i + 1)
		v.nulls.Set(i)
	}
	switch v.kind {
	case value.Bool:
		v.bools = push(v.bools, cell.NumRaw() != 0)
	case value.Int:
		v.ints = push(v.ints, cell.NumRaw())
	case value.Float:
		v.floats = push(v.floats, math.Float64frombits(uint64(cell.NumRaw())))
	case value.String:
		v.strs = push(v.strs, cell.StrRaw())
	case anyKind:
		v.anys = push(v.anys, cell)
	}
}

// push is append with doubling at every size: append alone grows a large
// slice by a quarter, which over a 30k-row decode allocates five times
// the final vector where doubling allocates twice.
func push[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s)+1)
	}
	return append(s, x)
}

// start fixes an all-null column's kind at its first non-null cell and
// backfills the nulls before it.
func (b *Builder) start(v *Vec, k value.Kind) {
	if k == value.Time {
		k = anyKind
	}
	i := b.n
	v.kind = k
	switch k {
	case value.Bool:
		v.bools = make([]bool, i, i+1)
	case value.Int:
		v.ints = make([]int64, i, i+1)
	case value.Float:
		v.floats = make([]float64, i, i+1)
	case value.String:
		v.strs = make([]string, i, i+1)
	case anyKind:
		v.anys = make([]value.V, i, i+1)
	}
	if i > 0 {
		v.nulls = NewBitmap(i)
		for j := 0; j < i; j++ {
			v.nulls.Set(j)
		}
	}
}

// box re-stores the first n cells of a typed column as boxed values.
func box(v *Vec, n int) {
	if v.nulls != nil {
		v.nulls.grow(n)
	}
	v.length = n
	anys := make([]value.V, n, n+1)
	for j := range anys {
		anys[j] = v.At(j)
	}
	*v = Vec{kind: anyKind, anys: anys, nulls: v.nulls}
}

// Table seals the builder and returns what it accumulated as a
// column-backed table. The builder must not be appended to afterwards:
// the table owns the vectors.
func (b *Builder) Table() *table.Table {
	for _, v := range b.cols {
		v.length = b.n
		if v.nulls != nil {
			v.nulls.grow(b.n)
		}
	}
	return (&Batch{schema: b.schema, cols: b.cols, length: b.n}).ToTable()
}
