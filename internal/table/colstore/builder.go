package colstore

import (
	"fmt"
	"math"
	"slices"
	"strings"

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
//
// A string column is built dictionary-coded: a value the column has
// already seen costs a map lookup and a 4-byte code, no allocation and
// no string header. When the dictionary stops being small relative to
// the rows seen (dictMaxShare) the column reverts, once, to a plain
// vector and stays one. The lookup maps belong to the builder and are
// dropped when it is sealed; the table keeps only codes and dictionary.
// A dictionary entry is the builder's own copy, so a coded column never
// keeps a caller's larger string (a decoder's whole payload) alive; a
// plain column stores the strings it is given, unless OwnStrings is called.
type Builder struct {
	schema *schema.Schema
	cols   []*Vec
	// dicts[c] maps a string to its code while column c is being built
	// dictionary-coded; nil for every other column.
	dicts []map[string]uint32
	n     int
	// want is the row count Reserve last set; 0 before any.
	want int
}

// A dictionary-coded column reverts to a plain vector at the first new
// value that leaves its dictionary with more than dictMinEntries entries
// and more than 1/dictMaxShare of the rows seen.
//
// The share is measured (60,000 cells appended from bytes, the sbin
// shape; coding forced on / forced off, ms and allocations per build):
// 1/115 distinct 2.2 vs 5.7 ms and 566 vs 60,025; 1/16 3.7 vs 5.9 and
// 3,831; 1/8 5.9 vs 5.2 and 7,612; 1/4 8.3 vs 5.7 and 14,881; 1/2 12.6
// vs 6.1; all distinct 24.9 vs 5.0. Coding pays a map probe per cell and
// an insert per new value to save a heap string per repeat: level on
// time at an eighth, ahead below it, and always ahead on bytes and
// objects there. BenchmarkBuilderStrings reruns the plain and the
// as-shipped sides.
//
// The floor exists because every column's first rows are mostly new
// values — 520 values drawn at random are a quarter of the rows until
// row 2,000 — so the share only means something once the dictionary is
// larger than a low-cardinality column's would ever be. What the floor
// costs a column of all-distinct strings is its first 1,024 cells coded
// for nothing: 0.45 ms, once, whatever the row count.
const (
	dictMinEntries = 1024
	dictMaxShare   = 8
)

// NewBuilder returns a builder for tables of schema s. Vectors grow by
// doubling as rows arrive until the decoder calls Reserve.
func NewBuilder(s *schema.Schema) *Builder {
	cols := make([]*Vec, s.Len())
	for i := range cols {
		cols[i] = &Vec{}
	}
	return &Builder{schema: s, cols: cols, dicts: make([]map[string]uint32, s.Len())}
}

// Reserve tells the builder how many rows its caller's evidence says the
// table will end with: from then on a vector that fills, or starts, is
// allocated for that many rows at once, and doubles only beyond them. The
// count must follow from bytes of input the caller holds — rows built per
// byte consumed, a cell's minimum size — never from a count the input
// merely claims (a header field, a line count), so that a decode
// allocates no more than an input of its size, as dense as the part
// already read, really produces. The caller may revise it at any time,
// and Table trims a vector the reserve overshot.
func (b *Builder) Reserve(rows int) { b.want = rows }

// room is the capacity for a vector that holds n cells and needs more.
func (b *Builder) room(n int) int {
	if b.want > n {
		return b.want
	}
	return 2*n + 1
}

// Append adds one row. The slice is read, not retained, so callers can
// refill one scratch row per record.
func (b *Builder) Append(row []value.V) {
	if len(row) != len(b.cols) {
		panic(fmt.Sprintf("colstore: append arity %d != schema %d", len(row), len(b.cols)))
	}
	for c, cell := range row {
		b.AppendCell(c, cell)
	}
	b.EndRow()
}

// AppendCell adds column c's cell of the row being built. A row is one
// cell for every column, in any order, then EndRow; Append does all of
// it for callers that hold the row.
func (b *Builder) AppendCell(c int, cell value.V) { b.appendCell(c, cell, nil) }

// AppendString is AppendCell for a string cell the caller holds as
// bytes (a slice of its payload): they are copied into a string only
// when the column has not seen the value, or is not coded.
func (b *Builder) AppendString(c int, p []byte) { b.appendCell(c, value.NewString(""), p) }

// EndRow completes the row the AppendCell calls built.
func (b *Builder) EndRow() { b.n++ }

// appendCell stores one cell; a string cell's payload is p when p is
// non-nil and cell's own otherwise.
func (b *Builder) appendCell(c int, cell value.V, p []byte) {
	v := b.cols[c]
	i := b.n
	k := cell.Kind()
	switch {
	case v.kind == value.Null:
		if k == value.Null {
			return
		}
		b.start(c, k)
	case k != value.Null && k != v.kind && v.kind != anyKind:
		b.box(c)
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
		v.bools = push(b, v.bools, cell.NumRaw() != 0)
	case value.Int:
		v.ints = push(b, v.ints, cell.NumRaw())
	case value.Float:
		v.floats = push(b, v.floats, math.Float64frombits(uint64(cell.NumRaw())))
	case value.String:
		b.pushString(c, cell.StrRaw(), p)
	case anyKind:
		if p != nil {
			cell = value.NewString(string(p))
		}
		v.anys = push(b, v.anys, cell)
	}
}

// pushString appends a string cell (s, or the bytes p when non-nil; a
// null cell arrives as "") to string column c in its current layout.
func (b *Builder) pushString(c int, s string, p []byte) {
	v := b.cols[c]
	m := b.dicts[c]
	if m == nil {
		if p != nil {
			s = string(p)
		}
		v.strs = push(b, v.strs, s)
		return
	}
	var code uint32
	var ok bool
	if p != nil {
		code, ok = m[string(p)] // the conversion in a map index does not allocate
	} else {
		code, ok = m[s]
	}
	if !ok {
		if p != nil {
			s = string(p)
		}
		if len(v.dict) > dictMinEntries && len(v.dict)*dictMaxShare > b.n {
			b.plain(c)
			v.strs = push(b, v.strs, s)
			return
		}
		if p == nil {
			s = strings.Clone(s)
		}
		code = uint32(len(v.dict))
		v.dict = append(v.dict, s)
		m[s] = code
	}
	v.codes = push(b, v.codes, code)
}

// plain reverts coded string column c to one header per element.
func (b *Builder) plain(c int) {
	v := b.cols[c]
	strs := make([]string, len(v.codes), b.room(len(v.codes)))
	for i, code := range v.codes {
		strs[i] = v.dict[code]
	}
	v.strs, v.codes, v.dict, b.dicts[c] = strs, nil, nil, nil
}

// push appends x, growing a full vector to b.room: append alone grows a
// large slice by a quarter, which over a 30k-row decode allocates five
// times the final vector where doubling allocates twice, a reserve once.
func push[T any](b *Builder, s []T, x T) []T {
	if n := len(s); n == cap(s) {
		s = slices.Grow(s, b.room(n)-n)
	}
	return append(s, x)
}

// start fixes all-null column c's kind at its first non-null cell and
// backfills the nulls before it.
func (b *Builder) start(c int, k value.Kind) {
	if k == value.Time {
		k = anyKind
	}
	v := b.cols[c]
	i := b.n
	v.kind = k
	switch k {
	case value.Bool:
		v.bools = make([]bool, i, b.room(i))
	case value.Int:
		v.ints = make([]int64, i, b.room(i))
	case value.Float:
		v.floats = make([]float64, i, b.room(i))
	case value.String:
		v.codes = make([]uint32, i, b.room(i))
		v.dict = []string{""}
		b.dicts[c] = map[string]uint32{"": 0}
	case anyKind:
		v.anys = make([]value.V, i, b.room(i))
	}
	if i > 0 {
		v.nulls = NewBitmap(i)
		for j := 0; j < i; j++ {
			v.nulls.Set(j)
		}
	}
}

// box re-stores the cells typed column c holds so far as boxed values.
func (b *Builder) box(c int) {
	v := b.cols[c]
	n := b.n
	if v.nulls != nil {
		v.nulls.grow(n)
	}
	v.length = n
	anys := make([]value.V, n, b.room(n))
	for j := range anys {
		anys[j] = v.At(j)
	}
	*v = Vec{kind: anyKind, anys: anys, nulls: v.nulls}
	b.dicts[c] = nil
}

// OwnStrings gives every plain and boxed string cell a copy of its own. It
// is for a caller whose cells are substrings of a text much larger than
// the rows it appended (a decoder whose predicate dropped most of the
// payload): otherwise a few kept cells keep all that text alive with the
// table.
func (b *Builder) OwnStrings() {
	for _, v := range b.cols {
		for i, s := range v.strs {
			v.strs[i] = strings.Clone(s)
		}
		for i, cell := range v.anys {
			if cell.Kind() == value.String {
				v.anys[i] = value.NewString(strings.Clone(cell.StrRaw()))
			}
		}
	}
}

// Table seals the builder and returns what it accumulated as a
// column-backed table. The builder must not be appended to afterwards:
// the table owns the vectors, and may be cached for good — so one with
// more than a quarter spare (doubling's slack, a reserve the rest of the
// input did not bear out) is first moved to one of its own size. A
// reserve that held leaves its 1/32 and the allocator's rounding to whole
// pages, which is not worth a copy.
func (b *Builder) Table() *table.Table {
	for _, v := range b.cols {
		v.length = b.n
		if v.nulls != nil {
			v.nulls.grow(b.n)
		}
		v.bools, v.ints, v.floats = trim(v.bools), trim(v.ints), trim(v.floats)
		v.strs, v.codes, v.anys = trim(v.strs), trim(v.codes), trim(v.anys)
	}
	b.dicts = nil
	return (&Batch{schema: b.schema, cols: b.cols, length: b.n}).ToTable()
}

// trim returns s, reallocated when over a quarter of it is spare.
func trim[T any](s []T) []T {
	if cap(s)-len(s) > len(s)/4 {
		return slices.Clone(s)
	}
	return s
}
