// Package colstore is the columnar execution layout of the batch
// engine: typed column vectors (int64 / float64 / string / bool, each
// with a null bitmap; a string vector may be dictionary-coded) plus
// vectorized kernels for the hot tasks — filter, map-expr, groupby,
// topn, sort, limit and the two-input hash join.
//
// A Batch is also the storage of a column-backed table.Table: the format
// decoders fill one through a Builder, ToTable wraps it without copying
// and FromTable hands the same batch back, so a decoded source reaches
// the kernels — and a kernel's output reaches the next node — without a
// conversion in either direction. A row-backed Table converts to a Batch
// when every column is kind-uniform (one payload kind plus nulls);
// mixed-kind and time columns have no typed vector (a Builder boxes
// them), and the engine runs tables holding one through the row kernels.
// Conversion copies cell headers but never string payloads (Go strings
// are immutable), so a 100k-row text column costs 100k string headers,
// not a byte of text. The kernels are semantically identical to the
// reference task implementations — internal/engine/enginetest runs
// both paths over the same pipelines and asserts equal outputs.
package colstore

import (
	"math"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// anyKind marks a heterogeneous vector (boxed values): a Builder column
// that mixed kinds or met a time, or an expression or aggregate output.
// Converting a row table never produces one.
const anyKind value.Kind = 0xFF

// Vec is one column of a Batch: a typed payload slice selected by kind,
// plus an optional null bitmap (nil when the column has no nulls).
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
	// constant marks a broadcast vector: one stored element (index 0)
	// logically repeated length times. The expression evaluator uses it
	// for literals; Batch columns are always dense (see densify).
	constant bool
}

// Len returns the number of elements.
func (v *Vec) Len() int { return v.length }

// Kind returns the vector's payload kind (value.Null for an all-null
// column).
func (v *Vec) Kind() value.Kind { return v.kind }

// Nulls returns the null bitmap, or nil when the vector has none.
func (v *Vec) Nulls() *Bitmap { return v.nulls }

// hasNulls reports whether any element is null.
func (v *Vec) hasNulls() bool { return v.kind == value.Null || (v.nulls != nil && !v.nulls.Empty()) }

// null reports whether element i is null.
func (v *Vec) null(i int) bool {
	if v.kind == value.Null {
		return true
	}
	if v.constant {
		return false
	}
	return v.nulls != nil && v.nulls.Get(i)
}

// str returns the payload of element i of a dense string vector, in
// either layout.
func (v *Vec) str(i int) string {
	if v.dict != nil {
		return v.dict[v.codes[i]]
	}
	return v.strs[i]
}

// At reconstructs element i as a dynamic value.
func (v *Vec) At(i int) value.V {
	if v.null(i) {
		return value.VNull
	}
	if v.constant {
		i = 0
	}
	switch v.kind {
	case value.Bool:
		return value.NewBool(v.bools[i])
	case value.Int:
		return value.NewInt(v.ints[i])
	case value.Float:
		return value.NewFloat(v.floats[i])
	case value.String:
		return value.NewString(v.str(i))
	case anyKind:
		return v.anys[i]
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

// setNull marks element i null, allocating the bitmap on first use.
func (v *Vec) setNull(i int) {
	if v.kind == value.Null {
		return
	}
	if v.nulls == nil {
		v.nulls = NewBitmap(v.length)
	}
	v.nulls.Set(i)
}

// set stores a value into element i of a vector whose kind matches
// val's kind (or which is an any-vector).
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

// densify expands a constant vector into a dense one; dense vectors
// are returned unchanged. Kernels densify before storing a vector into
// a Batch, so batch columns always index positionally.
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

// rowIndex is the element type of a selection vector: the single-input
// kernels select with []int, the join gathers through []int32.
type rowIndex interface{ ~int | ~int32 }

// gather returns a new vector holding the elements of v at idx. A
// negative index yields a null element — the outer join's "no partner".
// A dictionary-coded vector gathers its codes and shares the dictionary.
func gather[I rowIndex](v *Vec, idx []I) *Vec {
	out := &Vec{kind: v.kind, length: len(idx)}
	if v.kind == value.Null {
		return out
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
func gatherSlice[T any, I rowIndex](src []T, idx []I) (out []T, holes bool) {
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

// FromTable returns t as a Batch. ok is false when the table is not
// columnar-eligible: a column mixes payload kinds, or holds time values
// (which have no typed vector). Nulls are always allowed. A
// column-backed table returns its backing batch as is; a row-backed one
// is converted, sharing string payloads with the source table.
func FromTable(t *table.Table) (b *Batch, ok bool) {
	if b, ok := t.Columns().(*Batch); ok {
		for _, v := range b.cols {
			if v.kind == anyKind {
				return nil, false
			}
		}
		return b, true
	}
	s := t.Schema()
	rows := t.Rows()
	n := len(rows)
	nc := s.Len()
	cols := make([]*Vec, nc)
	// One row-major pass: rows are individually allocated, so visiting
	// each exactly once is ~nc times cheaper in memory traffic than a
	// column-at-a-time sweep. The first non-null cell fixes a column's
	// kind and backfills the leading nulls; payload reads go through the
	// inlinable NumRaw/StrRaw accessors.
	for i, r := range rows {
		for c := 0; c < nc; c++ {
			cell := r[c]
			ck := cell.Kind()
			v := cols[c]
			if ck == value.Null {
				if v != nil {
					v.setNull(i)
				}
				continue
			}
			if v == nil {
				if ck == value.Time {
					return nil, false
				}
				v = newVec(ck, n)
				for j := 0; j < i; j++ {
					v.setNull(j)
				}
				cols[c] = v
			} else if ck != v.kind {
				return nil, false
			}
			switch ck {
			case value.Int:
				v.ints[i] = cell.NumRaw()
			case value.Float:
				v.floats[i] = math.Float64frombits(uint64(cell.NumRaw()))
			case value.String:
				v.strs[i] = cell.StrRaw()
			case value.Bool:
				v.bools[i] = cell.NumRaw() != 0
			}
		}
	}
	for c := 0; c < nc; c++ {
		if cols[c] == nil {
			// Column never produced a non-null cell (or the table is
			// empty): an all-null vector.
			cols[c] = newVec(value.Null, n)
		}
	}
	return &Batch{schema: s, cols: cols, length: n}, true
}

// ToTable returns the batch as a column-backed table: the batch becomes
// the table's storage, and rows materialize only if a caller asks the
// table for them.
func (b *Batch) ToTable() *table.Table { return table.FromColumns(b.schema, b) }

// Row implements table.Columns: the cells of row i, rebuilt from the
// vectors into dst.
func (b *Batch) Row(i int, dst []value.V) {
	for c, v := range b.cols {
		dst[c] = v.At(i)
	}
}

// Select returns a new batch holding the rows at idx, in order — the
// gather step after a selection bitmap or heap selection.
func (b *Batch) Select(idx []int) *Batch {
	cols := make([]*Vec, len(b.cols))
	for c, v := range b.cols {
		cols[c] = gather(v, idx)
	}
	return &Batch{schema: b.schema, cols: cols, length: len(idx)}
}

// SelectBitmap is Select over a selection bitmap's set positions.
func (b *Batch) SelectBitmap(sel *Bitmap) *Batch {
	return b.Select(sel.Indices())
}

// withColumn returns a batch sharing b's vectors with vec placed at
// column slot (overwriting, or appending when slot == len(cols)).
func (b *Batch) withColumn(out *schema.Schema, slot int, vec *Vec) *Batch {
	cols := make([]*Vec, out.Len())
	copy(cols, b.cols)
	cols[slot] = vec
	return &Batch{schema: out, cols: cols, length: b.length}
}

// compress turns a boxed value slice into the tightest vector: a typed
// vector when all non-null elements share one vectorizable kind, else
// an any-vector.
func compress(vals []value.V) *Vec {
	k := value.Null
	uniform := true
	for _, v := range vals {
		ck := v.Kind()
		if ck == value.Null {
			continue
		}
		if ck == value.Time {
			uniform = false
			break
		}
		if k == value.Null {
			k = ck
		} else if k != ck {
			uniform = false
			break
		}
	}
	if !uniform {
		out := newVec(anyKind, len(vals))
		for i, v := range vals {
			out.set(i, v)
		}
		return out
	}
	out := newVec(k, len(vals))
	for i, v := range vals {
		out.set(i, v)
	}
	return out
}
