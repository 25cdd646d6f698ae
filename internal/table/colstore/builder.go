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
// re-boxed as []value.V, which keeps every cell exact and which every
// kernel reads through value.V, as FromTable boxes one. A column that
// only ever sees nulls stores nothing.
//
// A string column is built dictionary-coded: a value the column has
// already seen costs a map lookup and a 4-byte code, no allocation and
// no string header. When the dictionary stops being small relative to
// the rows seen (dictMaxShare) the column reverts, once, to a plain
// vector and stays one. The lookup maps belong to the builder and are
// dropped when it is sealed; the table keeps only codes and dictionary.
//
// The builder owns every string it stores, so a table never aliases the
// bytes or strings it was built from (a decoder's payload): a dictionary
// entry, a plain column's cell and a boxed string cell are each copied
// into the builder's arena, chunks that strings.Builder hands out without
// a further copy, so strings cost one object per chunk, not one each.
//
// A builder that Streams builds no table: it hands its rows on a batch of
// morselRows at a time (see Stream).
type Builder struct {
	schema *schema.Schema
	cols   []*Vec
	// dicts[c] maps a string to its code while column c is being built
	// dictionary-coded; nil for every other column.
	dicts []map[string]uint32
	// n is the rows in the vectors; done the rows handed on before them.
	n, done int
	// want is the row count Reserve, or Stream, last set; 0 before any.
	want int
	// push takes each batch a streaming builder seals, in chunk.
	push  func(*Batch) error
	chunk *Batch
	// arena is the chunk own copies into; one that cannot take a string is
	// left to the strings in it (it is never written again), and the next
	// is twice its size, from 1 KiB up to arenaMaxChunk.
	arena strings.Builder
}

const arenaMaxChunk = 64 << 10

// A dictionary-coded column reverts to a plain vector at the first new
// value that leaves its dictionary with more than dictMinEntries entries
// and more than 1/dictMaxShare of the rows seen.
//
// The share is measured (60,000 cells appended from bytes, the sbin
// shape; coding forced on / forced off, ms per build): 1/115 distinct 2.6
// vs 6.3; 1/16 3.9 vs 6.2; 1/8 5.3 vs 6.3; 1/6 5.5 vs 6.3; 1/5 6.6 vs
// 6.1; 1/4 8.4 vs 6.5; all distinct 17.1 vs 6.2. Coding pays a map probe
// per cell to save a string header and an arena copy per repeat: level on
// time at a fifth, ahead below it and on bytes (1.9 vs 4.8 MB at an
// eighth), level on objects. BenchmarkBuilderStrings reruns the plain and
// the as-shipped sides.
//
// The floor exists because every column's first rows are mostly new
// values — 520 values drawn at random are a quarter of the rows until
// row 2,000 — so the share only means something once the dictionary is
// larger than a low-cardinality column's would ever be. What the floor
// costs a column of all-distinct strings is its first 1,024 cells coded
// for nothing: 0.45 ms, once, whatever the row count.
const (
	dictMinEntries = 1024
	dictMaxShare   = 5
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
// and Table trims a vector the reserve overshot. A streaming builder's
// reserve stays a batch.
func (b *Builder) Reserve(rows int) {
	if b.push == nil {
		b.want = rows
	}
}

// Stream has the builder hand its rows to push as a batch every
// morselRows rows, and the rest at Done, instead of building a table. A
// batch is good only during its push: the builder then empties its
// vectors in place, keeping their capacity, for the next. Its
// dictionaries and arena carry on, so a coded column's codes mean the
// same in every batch and its dictionary only grows, and the revert rule
// counts every row seen, so a column turns plain at the row a whole
// build's would. A column's kind carries on too: a batch's column is of
// the first batch's kind unless it met its first non-null cell, another
// kind or a time in that batch.
func (b *Builder) Stream(push func(*Batch) error) {
	b.push, b.chunk, b.want = push, &Batch{schema: b.schema, cols: b.cols}, morselRows
}

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
	b.EndRow() // a builder fed by Append does not stream
}

// AppendCell adds column c's cell of the row being built. A row is one
// cell for every column, in any order, then EndRow; Append does all of
// it for callers that hold the row.
func (b *Builder) AppendCell(c int, cell value.V) { b.appendCell(c, cell, nil) }

// AppendString is AppendCell for a string cell the caller holds as
// bytes (a slice of its payload): they are copied into the arena only
// when the column has not seen the value, or is not coded.
func (b *Builder) AppendString(c int, p []byte) { b.appendCell(c, value.NewString(""), p) }

// EndRow completes the row the AppendCell calls built. A row that fills
// a streaming builder's batch hands the batch on, and EndRow returns
// push's error.
func (b *Builder) EndRow() error {
	if b.n++; b.push != nil && b.n == morselRows {
		return b.flush()
	}
	return nil
}

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
		if k == value.String {
			cell = value.NewString(b.own(cell.StrRaw(), p))
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
		v.strs = push(b, v.strs, b.own(s, p))
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
		if len(v.dict) > dictMinEntries && len(v.dict)*dictMaxShare > b.done+b.n {
			b.plain(c)
			v.strs = push(b, v.strs, b.own(s, p))
			return
		}
		s = b.own(s, p)
		code = uint32(len(v.dict))
		v.dict = append(v.dict, s)
		m[s] = code
	}
	v.codes = push(b, v.codes, code)
}

// own returns a copy of the string cell s, or of its bytes p (s is then
// ""), held by the arena.
func (b *Builder) own(s string, p []byte) string {
	a := &b.arena
	if n := len(s) + len(p); n == 0 {
		return "" // pins no chunk
	} else if c := a.Cap(); c-a.Len() < n {
		*a = strings.Builder{}
		a.Grow(max(n, min(2*c, arenaMaxChunk), arenaMaxChunk/64))
	}
	off := a.Len()
	a.WriteString(s)
	a.Write(p)
	return a.String()[off:]
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

// Table seals the builder and returns what it accumulated as a
// column-backed table. The builder must not be appended to afterwards:
// the table owns the vectors, and may be cached for good — so one with
// more than a quarter spare (doubling's slack, a reserve the rest of the
// input did not bear out) is first moved to one of its own size. A
// reserve that held leaves its 1/32 and the allocator's rounding to whole
// pages, which is not worth a copy.
func (b *Builder) Table() *table.Table {
	for _, v := range b.cols {
		v.bools, v.ints, v.floats = trim(v.bools), trim(v.ints), trim(v.floats)
		v.strs, v.codes, v.anys = trim(v.strs), trim(v.codes), trim(v.anys)
	}
	b.dicts = nil
	b.seal()
	return (&Batch{schema: b.schema, cols: b.cols, length: b.n}).ToTable()
}

// Done ends the build: the table, or, for a streaming builder, none,
// once the rows left are handed on — as a batch even when there are
// none, if no batch was, so that every stream has a first batch.
func (b *Builder) Done() (*table.Table, error) {
	if b.push == nil {
		return b.Table(), nil
	}
	if b.n > 0 || b.done == 0 {
		return nil, b.flush()
	}
	return nil, nil
}

// seal sets every vector's length to the rows built.
func (b *Builder) seal() {
	for _, v := range b.cols {
		v.length = b.n
		if v.nulls != nil {
			v.nulls.grow(b.n)
		}
	}
}

// flush hands the rows built to push as a batch and empties the vectors.
func (b *Builder) flush() error {
	b.seal()
	b.chunk.length = b.n
	err := b.push(b.chunk)
	b.done, b.n = b.done+b.n, 0
	for _, v := range b.cols {
		v.length = 0
		v.bools, v.ints, v.floats = v.bools[:0], v.ints[:0], v.floats[:0]
		v.strs, v.codes, v.anys = v.strs[:0], v.codes[:0], v.anys[:0]
		if v.nulls != nil {
			v.nulls.words = v.nulls.words[:0]
		}
	}
	return err
}

// trim returns s, reallocated when over a quarter of it is spare.
func trim[T any](s []T) []T {
	if cap(s)-len(s) > len(s)/4 {
		return slices.Clone(s)
	}
	return s
}
