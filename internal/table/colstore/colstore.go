// Package colstore is the columnar execution layout of the batch
// engine: typed column vectors (int64 / float64 / string / bool, each
// with a null mask; a string vector may be dictionary-coded) plus
// vectorized kernels for the hot tasks — filter, map-expr, groupby,
// topn, sort, limit and the two-input hash join.
//
// Kernels exchange selections, not copies. A column may be a selection:
// another vector's payload read through one []int32 of row indices.
// Filter, Sort, TopN, Limit and Join produce selections instead of
// gathering their kept rows, and every reader — the group-by, the sort
// comparators, the expression evaluator — reads through them, so a
// column nothing downstream reads is never copied. Compact gathers the
// selections that would pin a much larger vector when a pipeline ends.
//
// A Batch is also the storage of a column-backed table.Table: the format
// decoders fill one through a Builder, ToTable wraps it without copying
// and FromTable hands the same batch back, so a decoded source reaches
// the kernels — and a kernel's output reaches the next node — without a
// conversion in either direction. A row-backed Table (a user task's or
// the cube's output) converts to a Batch column by column: a kind-uniform
// column (one payload kind plus nulls) to a typed vector, a mixed-kind or
// time column to a boxed one, as a Builder stores it, which every kernel
// reads through value.V.
// Conversion copies cell headers but never string payloads (Go strings
// are immutable), so a 100k-row text column costs 100k string headers,
// not a byte of text. docs/SEMANTICS.md states what group-by, join and
// sort mean; internal/engine/enginetest holds every kernel to a naive
// reference of it.
package colstore

import (
	"slices"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// anyKind marks a heterogeneous vector (boxed values): a column that
// mixed kinds or met a time, or an expression or aggregate output.
const anyKind value.Kind = 0xFF

// Vec is one column of a Batch: a typed payload slice selected by kind,
// plus an optional null mask (nil when the column has no nulls).
// Null cells hold the zero value in the payload slice, which matches
// the platform's coercion rules (null.Int() == 0, null.Str() == "").
//
// A string vector has two layouts. Plain: strs holds one header per
// element. Dictionary-coded (dict != nil): codes holds one index per
// element into dict, which lists each distinct string once, "" always at
// code 0 so a null cell's zero code reads as the zero string. A Builder
// produces coded vectors; gathers copy the 4-byte codes and share the
// dictionary, which is immutable and may therefore list strings no
// element of a gathered vector still uses. Read elements through str.
//
// Element i of a vector lives in payload slot slot(i). A dense vector
// stores element i at slot i. A selection (sel != nil) shares another
// vector's payload and null mask and stores element i at slot sel[i]; a
// -1 entry has no slot and reads as null (an outer join's "no partner").
// Payload slices and null masks are never written once a vector is in a
// Batch, so any number of selections and readers share them.
type Vec struct {
	kind   value.Kind
	ints   []int64
	floats []float64
	strs   []string
	codes  []uint32
	dict   []string
	bools  []bool
	anys   []value.V
	nulls  *Bitmap
	length int
	sel    []int32
	// constant marks a broadcast vector: one stored element (slot 0)
	// logically repeated length times. The expression evaluator uses it
	// for literals; Batch columns never are (see densify).
	constant bool
}

// Len returns the number of elements.
func (v *Vec) Len() int { return v.length }

// Kind returns the vector's payload kind (value.Null for an all-null
// column).
func (v *Vec) Kind() value.Kind { return v.kind }

// slot returns the payload slot of element i: -1 for a selection's hole.
func (v *Vec) slot(i int) int {
	switch {
	case v.sel != nil:
		return int(v.sel[i])
	case v.constant:
		return 0
	}
	return i
}

// hasNulls reports whether any element is null; on a selection, a hole
// or a selected null slot.
func (v *Vec) hasNulls() bool {
	if v.kind == value.Null {
		return true
	}
	if v.sel == nil {
		return v.nulls != nil && !v.nulls.Empty()
	}
	for _, s := range v.sel {
		if s < 0 || (v.nulls != nil && v.nulls.Get(int(s))) {
			return true
		}
	}
	return false
}

// holes reports whether a selection has -1 entries.
func (v *Vec) holes() bool { return v.sel != nil && slices.Contains(v.sel, -1) }

// holeless is v, gathered dense first when it is a selection with holes:
// the typed loops read payload slots, which a hole lacks.
func (v *Vec) holeless() *Vec {
	if v.holes() {
		return v.dense()
	}
	return v
}

// null reports whether element i is null.
func (v *Vec) null(i int) bool {
	if v.kind == value.Null {
		return true
	}
	s := v.slot(i)
	return s < 0 || (v.nulls != nil && v.nulls.Get(s))
}

// str returns the string in payload slot s, in either layout.
func (v *Vec) str(s int) string {
	if v.dict != nil {
		return v.dict[v.codes[s]]
	}
	return v.strs[s]
}

// At reconstructs element i as a dynamic value.
func (v *Vec) At(i int) value.V {
	if v.null(i) {
		return value.VNull
	}
	s := v.slot(i)
	switch v.kind {
	case value.Bool:
		return value.NewBool(v.bools[s])
	case value.Int:
		return value.NewInt(v.ints[s])
	case value.Float:
		return value.NewFloat(v.floats[s])
	case value.String:
		return value.NewString(v.str(s))
	case anyKind:
		return v.anys[s]
	}
	return value.VNull
}

// newVec allocates a dense vector of the given kind and length.
func newVec(k value.Kind, n int) *Vec {
	v := &Vec{kind: k, length: n}
	switch k {
	case value.Bool:
		v.bools = make([]bool, n)
	case value.Int:
		v.ints = make([]int64, n)
	case value.Float:
		v.floats = make([]float64, n)
	case value.String:
		v.strs = make([]string, n)
	case anyKind:
		v.anys = make([]value.V, n)
	}
	return v
}

// setNull marks element i of a dense vector null, allocating the mask
// on first use.
func (v *Vec) setNull(i int) {
	if v.kind == value.Null {
		return
	}
	if v.nulls == nil {
		v.nulls = NewBitmap(v.length)
	}
	v.nulls.Set(i)
}

// set stores a value into element i of a dense vector whose kind
// matches val's kind (or which is an any-vector).
func (v *Vec) set(i int, val value.V) {
	if val.IsNull() {
		v.setNull(i)
		if v.kind == anyKind {
			v.anys[i] = val
		}
		return
	}
	switch v.kind {
	case value.Bool:
		v.bools[i] = val.Bool()
	case value.Int:
		v.ints[i] = val.Int()
	case value.Float:
		v.floats[i] = val.Float()
	case value.String:
		v.strs[i] = val.Str()
	case anyKind:
		v.anys[i] = val
	}
}

// densify expands a constant vector into a dense one; other vectors are
// returned unchanged. Kernels densify before storing a vector into a
// Batch, so a batch column never broadcasts.
func (v *Vec) densify() *Vec {
	if !v.constant {
		return v
	}
	out := newVec(v.kind, v.length)
	if v.kind != value.Null {
		val := v.At(0)
		for i := 0; i < v.length; i++ {
			out.set(i, val)
		}
	}
	return out
}

// slots is the length of the payload a vector reads from: a selection's
// base length.
func (v *Vec) slots() int {
	return len(v.bools) + len(v.ints) + len(v.floats) + len(v.strs) + len(v.codes) + len(v.anys)
}

// dense returns v itself, or a selection gathered into a vector of its
// own.
func (v *Vec) dense() *Vec {
	if v.sel == nil {
		return v
	}
	base := *v
	base.sel, base.length = nil, v.slots()
	return gather(&base, v.sel)
}

// pick returns the elements of v at idx as a selection: over v's
// payload through idx itself when v is dense, else through v's indices
// composed with idx. Kernels select through it; the payload is shared,
// not copied.
func (v *Vec) pick(idx []int32, c *composer) *Vec {
	if v.kind == value.Null {
		return &Vec{kind: value.Null, length: len(idx)}
	}
	out := *v
	out.length = len(idx)
	out.sel = c.through(v.sel, idx)
	return &out
}

// composer composes index vectors for one output batch: each distinct
// (source selection, index vector) pair once, so columns that shared
// one selection go on sharing one.
type composer struct{ done [][3][]int32 }

// through returns the slots of a vector with selection sel (nil: dense)
// at idx.
func (c *composer) through(sel, idx []int32) []int32 {
	if sel == nil {
		return idx
	}
	for _, d := range c.done {
		if same(d[0], sel) && same(d[1], idx) {
			return d[2]
		}
	}
	out := compose(sel, idx)
	c.done = append(c.done, [3][]int32{sel, idx, out})
	return out
}

// same reports whether two slices are one: two index vectors, or two
// dictionaries.
func same[T any](a, b []T) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }

// compose returns sel at idx, -1 wherever idx is -1.
func compose(sel, idx []int32) []int32 {
	out := make([]int32, len(idx))
	for o, i := range idx {
		out[o] = -1
		if i >= 0 {
			out[o] = sel[i]
		}
	}
	return out
}

// gather returns a new dense vector holding the elements of v at idx. A
// negative index yields a null element — the outer join's "no partner".
// A dictionary-coded vector gathers its codes and shares the dictionary.
func gather(v *Vec, idx []int32) *Vec {
	out := &Vec{kind: v.kind, length: len(idx)}
	if v.kind == value.Null {
		return out
	}
	if v.sel != nil {
		idx = compose(v.sel, idx)
	}
	var holes bool
	switch {
	case v.dict != nil:
		out.dict = v.dict
		out.codes, holes = gatherSlice(v.codes, idx)
	case v.kind == value.Bool:
		out.bools, holes = gatherSlice(v.bools, idx)
	case v.kind == value.Int:
		out.ints, holes = gatherSlice(v.ints, idx)
	case v.kind == value.Float:
		out.floats, holes = gatherSlice(v.floats, idx)
	case v.kind == value.String:
		out.strs, holes = gatherSlice(v.strs, idx)
	case v.kind == anyKind:
		out.anys, holes = gatherSlice(v.anys, idx)
	}
	if holes || v.nulls != nil {
		for o, i := range idx {
			if i < 0 || (v.nulls != nil && v.nulls.Get(int(i))) {
				out.setNull(o)
			}
		}
	}
	return out
}

// gatherSlice copies src's elements at idx. A negative index leaves the
// zero value, which is what a null cell stores; holes reports that there
// was one.
func gatherSlice[T any](src []T, idx []int32) (out []T, holes bool) {
	out = make([]T, len(idx))
	for o, i := range idx {
		if i >= 0 {
			out[o] = src[i]
		} else {
			holes = true
		}
	}
	return out, holes
}

// Batch is a columnar table: a schema plus one vector per column. All
// vectors have the batch's length.
type Batch struct {
	schema *schema.Schema
	cols   []*Vec
	length int
}

// Schema returns the batch's schema.
func (b *Batch) Schema() *schema.Schema { return b.schema }

// Len returns the number of rows.
func (b *Batch) Len() int { return b.length }

// Col returns the i'th column vector.
func (b *Batch) Col(i int) *Vec { return b.cols[i] }

// FromTable returns t as a Batch; ok is always true. A column-backed
// table returns its backing batch as is; a row-backed one is converted
// column by column, each typed as compress types it (cellKind), sharing
// string payloads with the source table.
func FromTable(t *table.Table) (b *Batch, ok bool) {
	if b, ok := t.Columns().(*Batch); ok {
		return b, true
	}
	rows := t.Rows()
	cols := make([]*Vec, t.Schema().Len())
	vals := make([]value.V, len(rows))
	for c := range cols {
		for i, r := range rows {
			vals[i] = r[c]
		}
		cols[c] = compress(vals)
	}
	return &Batch{schema: t.Schema(), cols: cols, length: len(rows)}, true
}

// ToTable returns the batch as a column-backed table: the batch becomes
// the table's storage, and rows materialize only if a caller asks the
// table for them.
func (b *Batch) ToTable() *table.Table { return table.FromColumns(b.schema, b) }

// At implements table.Columns: the cell of row i in column c.
func (b *Batch) At(i, c int) value.V { return b.cols[c].At(i) }

// Row implements table.Columns: the cells of row i, rebuilt from the
// vectors into dst.
func (b *Batch) Row(i int, dst []value.V) {
	for c, v := range b.cols {
		dst[c] = v.At(i)
	}
}

// Select implements table.Columns: the rows at idx as selections.
func (b *Batch) Select(idx []int32) table.Columns { return b.selectRows(idx) }

// selectRows returns the rows at idx, in order (-1: a row of nulls), as
// a batch of selections — nothing is copied but the index vectors.
func (b *Batch) selectRows(idx []int32) *Batch {
	var c composer
	cols := make([]*Vec, len(b.cols))
	for i, v := range b.cols {
		cols[i] = v.pick(idx, &c)
	}
	return &Batch{schema: b.schema, cols: cols, length: len(idx)}
}

// gatherRows is selectRows into dense vectors of the batch's own — for a
// kernel's fresh output, which is not worth keeping a permutation over.
func (b *Batch) gatherRows(idx []int32) *Batch {
	cols := make([]*Vec, len(b.cols))
	for i, v := range b.cols {
		cols[i] = gather(v, idx)
	}
	return &Batch{schema: b.schema, cols: cols, length: len(idx)}
}

// Compact bounds what a column-backed table's selections keep alive:
// every column whose selection is shorter than a quarter of the vector
// it selects from is gathered into a vector of its own, and the rest are
// shared. The engine calls it where a pipeline ends, so a 20-row top-n
// never pins the 200,000-row column it was selected from, while a filter
// that kept most of its input still hands on only its indices. Other
// tables are returned as they are.
func Compact(t *table.Table) *table.Table {
	b, ok := t.Columns().(*Batch)
	if !ok {
		return t
	}
	var cols []*Vec
	for i, v := range b.cols {
		if v.sel == nil || 4*len(v.sel) >= v.slots() {
			continue
		}
		if cols == nil {
			cols = slices.Clone(b.cols)
		}
		cols[i] = v.dense()
	}
	if cols == nil {
		return t
	}
	return (&Batch{schema: b.schema, cols: cols, length: b.length}).ToTable()
}

// compress turns a boxed value slice into the tightest vector: a typed
// vector when all non-null elements share one vectorizable kind, else
// an any-vector.
func compress(vals []value.V) *Vec {
	out := new(Vec)
	out.fill(vals)
	return out
}

// cellKind is the kind of the tightest vector that holds vals: the kind
// all non-null cells share when it vectorizes, else anyKind.
func cellKind(vals []value.V) value.Kind {
	k := value.Null
	for _, x := range vals {
		if xk := x.Kind(); xk == value.Time || xk != value.Null && k != value.Null && xk != k {
			return anyKind
		} else if xk != value.Null {
			k = xk
		}
	}
	return k
}

// fill makes dense vector v compress(vals), writing into the payload
// and the null mask v already has where they have the room.
func (v *Vec) fill(vals []value.V) {
	k, n := cellKind(vals), len(vals)
	v.kind, v.length = k, n
	switch k {
	case value.Bool:
		v.bools = grown(v.bools, n)
		clear(v.bools)
	case value.Int:
		v.ints = grown(v.ints, n)
		clear(v.ints)
	case value.Float:
		v.floats = grown(v.floats, n)
		clear(v.floats)
	case value.String:
		v.strs = grown(v.strs, n)
		clear(v.strs)
	case anyKind:
		v.anys = grown(v.anys, n)
	}
	if v.nulls != nil {
		v.nulls.grow(n)
		clear(v.nulls.words)
	}
	for i, x := range vals {
		v.set(i, x)
	}
}
