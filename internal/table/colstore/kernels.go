package colstore

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// Kernel is one vectorized pipeline stage: a batch in, a batch out.
type Kernel interface {
	Run(b *Batch) (*Batch, error)
}

// ---------------------------------------------------------------------
// filter

// Filter keeps the rows whose predicate evaluates truthy: the predicate
// runs per-column a morsel at a time into a bitmap of the rows it keeps,
// and the kept rows become a selection — one index vector, composed with
// each selection the input already held; no column is copied.
type Filter struct {
	// Pred is the compiled predicate (CompileVec of the
	// filter_expression).
	Pred *VecEval
}

// Run implements Kernel: a one-step run into Materialize. A batch every
// row passes is returned itself — a filter the decoder already applied,
// run again by the pipeline.
func (k *Filter) Run(b *Batch) (*Batch, error) {
	return one(k, b, nil, k.Pred.size)
}

// kept returns the positions of keep's set bits below n, ascending, in
// dst when it is not nil, or nil when all n are set.
func kept(dst []int32, keep *Bitmap, n int) []int32 {
	words, set := keep.words[:(n+63)/64], 0
	for _, w := range words {
		set += bits.OnesCount64(w)
	}
	if set == n {
		return nil
	}
	idx := dst[:0]
	if dst == nil {
		idx = make([]int32, 0, set)
	}
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			idx = append(idx, int32(i*64+bits.TrailingZeros64(w)))
		}
	}
	return idx
}

// ---------------------------------------------------------------------
// map-expr

// MapExpr computes one column over the whole batch — the vectorized
// `map` task, with the expr operator or any other that keeps every row.
// Input columns are shared, not copied; only the computed column is new.
type MapExpr struct {
	// Eval is the compiled expression or cell function (CompileCells).
	Eval *VecEval
	// Out is the output schema (input extended with, or overwriting,
	// the output column) and Slot the output column's index in it.
	Out  *schema.Schema
	Slot int
}

// Run implements Kernel: a one-step run into Materialize, which writes
// the computed column a morsel at a time into one vector.
func (k *MapExpr) Run(b *Batch) (*Batch, error) {
	return one(k, b, nil, k.Eval.size)
}

// ---------------------------------------------------------------------
// topn, sort and limit

// TopN keeps the first Limit rows by its keys: the topn task over one
// global group, and the sort task with the limit task after it. Its sink
// selects them with a bounded heap, O(n log limit) instead of a full
// sort, when the input is larger than the budget; the output is the
// stable sort's first Limit rows, ties in input order.
type TopN struct {
	// Keys are the order criteria, most significant first.
	Keys []table.SortKey
	// Limit is the row budget.
	Limit int
}

// Run implements Kernel: the top-n sink's heap pushed b whole, as one
// morsel; the stable sort where a key is missing or holds NaN or boxed
// cells, as a run's decline is.
func (k *TopN) Run(b *Batch) (*Batch, error) {
	h := new(heap)
	if err := h.bind(k.Keys, k.Limit, b.schema, min(max(k.Limit, 0), b.length)+1); err != nil {
		return topN(b, k.Keys, k.Limit)
	}
	if !h.push(nil, &morsel{view: *b}) {
		return topN(b, k.Keys, k.Limit)
	}
	return h.finish(nil)
}

// topN returns the first limit rows of b by keys, as selections: the
// stable sort's prefix.
func topN(b *Batch, keys []table.SortKey, limit int) (*Batch, error) {
	idx, err := sortPerm(b, keys, limit)
	if err != nil || idx == nil {
		return b, err
	}
	return b.selectRows(idx), nil
}

// identity returns the row indices 0..n-1.
func identity(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// keyComparator builds a three-way comparator over a vector's elements,
// equal to value.Compare on the reconstructed values: nulls first, then
// the typed payload order. It reads a selection through its indices.
func keyComparator(v *Vec) func(i, j int) int {
	var core func(i, j int) int
	switch v.kind {
	case value.Int:
		core = func(i, j int) int { return cmp.Compare(v.ints[v.slot(i)], v.ints[v.slot(j)]) }
	case value.Float:
		core = func(i, j int) int { return cmpFloat(v.floats[v.slot(i)], v.floats[v.slot(j)]) }
	case value.String:
		core = func(i, j int) int { return strings.Compare(v.str(v.slot(i)), v.str(v.slot(j))) }
	default:
		return func(i, j int) int { return value.Compare(v.At(i), v.At(j)) }
	}
	if !v.hasNulls() {
		return core
	}
	return func(i, j int) int { return compareCells(v, i, j) }
}

// compareCells compares elements i and j of v as keyComparator does,
// whatever nulls v holds by then.
func compareCells(v *Vec, i, j int) int {
	in, jn := v.null(i), v.null(j)
	switch {
	case in && jn:
		return 0
	case in:
		return -1
	case jn:
		return 1
	}
	si, sj := v.slot(i), v.slot(j)
	switch v.kind {
	case value.Int:
		return cmp.Compare(v.ints[si], v.ints[sj])
	case value.Float:
		return cmpFloat(v.floats[si], v.floats[sj])
	case value.String:
		return strings.Compare(v.str(si), v.str(sj))
	}
	return value.Compare(v.At(i), v.At(j))
}

// sortPerm returns the first limit rows (all, when limit reaches the
// length) of the permutation that orders b's rows stably by keys
// (docs/SEMANTICS.md §3). It is nil for no keys and no limit: the rows as
// they are.
func sortPerm(b *Batch, keys []table.SortKey, limit int) ([]int32, error) {
	n := b.length
	limit = max(min(limit, n), 0)
	if len(keys) == 0 && limit == n {
		return nil, nil
	}
	o, err := orderBy(b, keys)
	if err != nil {
		return nil, err
	}
	idx := identity(n)
	o.sort(idx)
	return idx[:limit], nil
}

// rowOrder is a stable order of a batch's rows by keys, each compared
// under its column's typed comparator: sort.SliceStable over
// value.Compare's outcomes, as the reference sorts, so the two agree even
// where value.Compare is not an order (NaN compares equal to every float).
type rowOrder []struct {
	cmp  func(i, j int) int
	desc bool
}

// orderBy returns the order of b's rows by keys.
func orderBy(b *Batch, keys []table.SortKey) (rowOrder, error) {
	o := make(rowOrder, len(keys))
	for i, k := range keys {
		j := b.schema.Index(k.Column)
		if j < 0 {
			return nil, fmt.Errorf("colstore: sort column %q not found", k.Column)
		}
		o[i].cmp, o[i].desc = keyComparator(b.cols[j]), k.Desc
	}
	return o, nil
}

// sort sorts idx, rows of the batch, stably into the order.
func (o rowOrder) sort(idx []int32) {
	sort.SliceStable(idx, func(x, y int) bool {
		for _, k := range o {
			if c := k.cmp(int(idx[x]), int(idx[y])); c != 0 {
				return (c < 0) != k.desc
			}
		}
		return false
	})
}

// GroupTopN is the topn task over groups (docs/SEMANTICS.md §6): b's rows
// grouped by their cells at groups, under §1.1's identity, the groups in
// the order of their encoded keys compared as byte strings, each group
// its first limit rows of the stable sort by keys, as selections.
func GroupTopN(b *Batch, groups []int, keys []table.SortKey, limit int) (*Batch, error) {
	o, err := orderBy(b, keys)
	if err != nil {
		return nil, err
	}
	ids := make([]int32, b.length)
	x := newKeyIndex(keyVecs(b, groups))
	x.assign(b, groups, 0, ids, true)
	// rows[g] are group g's rows in input order, names[g] its encoded key.
	rows, names := make([][]int32, x.size()), make([]string, x.size())
	for i, g := range ids {
		if rows[g] == nil {
			names[g] = string(appendKey(nil, b, groups, i))
		}
		rows[g] = append(rows[g], int32(i))
	}
	order := identity(len(rows))
	slices.SortFunc(order, func(g, h int32) int { return strings.Compare(names[g], names[h]) })
	kept := make([]int32, 0, b.length)
	for _, g := range order {
		o.sort(rows[g])
		kept = append(kept, rows[g][:min(limit, len(rows[g]))]...)
	}
	return b.selectRows(kept), nil
}

// Distinct is the distinct task (docs/SEMANTICS.md §9): the first row of
// each key of b's cells at cols, under §1.1's identity, in input order, as
// selections.
func Distinct(b *Batch, cols []int) *Batch {
	if len(cols) == 0 { // no columns: every row has the one empty key
		return b.selectRows(identity(min(b.length, 1)))
	}
	ids := make([]int32, b.length)
	newKeyIndex(keyVecs(b, cols)).assign(b, cols, 0, ids, true)
	kept, seen := ids[:0], int32(0)
	for i, id := range ids {
		if id == seen {
			kept, seen = append(kept, int32(i)), seen+1
		}
	}
	return b.selectRows(kept)
}

// Project returns b's columns at cols, in that order, as a batch of
// schema s: the vectors are shared, nothing is copied.
func (b *Batch) Project(s *schema.Schema, cols []int) *Batch {
	return &Batch{schema: s, cols: keyVecs(b, cols), length: b.length}
}

// Sort is the vectorized sort task: a stable multi-key sort of the whole
// batch, handed on as a selection through the sorted permutation.
type Sort struct {
	// Keys are the sort criteria, most significant first.
	Keys []table.SortKey
}

// Run implements Kernel: the stable sort, which a top-n sink that keeps
// every row ends with.
func (k *Sort) Run(b *Batch) (*Batch, error) { return topN(b, k.Keys, b.length) }

// Limit is the vectorized limit task: the first N rows, as a selection.
type Limit struct {
	// N is the row budget.
	N int
}

// Run implements Kernel: a one-step run into Materialize.
func (k *Limit) Run(b *Batch) (*Batch, error) {
	return one(k, b, nil, morselRows)
}

// ---------------------------------------------------------------------
// groupby

// Accumulator folds a bag of values into one value: one group's state of
// an aggregate, and the paper's "user defined aggregates" task category
// (§4.2 item 2). The task package's aggregate registry makes them;
// task.Accumulator is this interface.
type Accumulator interface {
	Add(v value.V)
	Result() value.V
}

// Agg is one aggregate of a GroupBy kernel.
type Agg struct {
	// Op names the aggregate operator (count, sum, stddev, a user
	// aggregate, …).
	Op string
	// Col is the input column the aggregate folds; -1 for a bare count.
	Col int
	// New is the operator's registered accumulator factory, which the
	// kernel folds with wherever it has no typed loop.
	New func() Accumulator
}

// GroupBy is the vectorized hash aggregation kernel. It walks the batch a
// morsel at a time: the morsel's rows get their group ids from the key
// columns (a new key takes the next id), and each aggregate folds the
// morsel into per-group state that grows as groups appear — in a tight
// typed loop where it has one, else with the aggregate's own accumulator
// — reading selections through their indices. Nothing but the state and
// the output is longer than a morsel. Grouping identity and output
// ordering are docs/SEMANTICS.md §1's (kind-tagged display-form keys;
// result sorted by SortKeys). Its output is dense: the groups are
// fresh vectors, gathered into their final order rather than kept under
// a permutation that would pin the unordered ones.
type GroupBy struct {
	// Keys are the grouping columns' indices.
	Keys []int
	// Aggs are the aggregates, aligned with Out's trailing columns.
	Aggs []Agg
	// Out is the output schema: key columns then aggregate columns.
	Out *schema.Schema
	// SortKeys is the final output ordering (group keys ascending, or
	// the first aggregate descending first under orderby_aggregates).
	SortKeys []table.SortKey
}

// Run implements Kernel: the fold sink over b whole.
func (k *GroupBy) Run(b *Batch) (*Batch, error) { return k.run(b, morselRows) }

// run is Run folding size rows at a time.
func (k *GroupBy) run(b *Batch, size int) (*Batch, error) {
	f := k.start(min(b.length, size))
	f.push(b)
	return f.finish()
}

// fold is one run of a GroupBy fed batches one after another — a whole
// batch by Run, a morsel at a time by a Fan. It copies each group's key
// cells and its aggregates' state out of the batch that opens or feeds
// it, so no batch outlives its push: the first batch fixes each column's
// fold by its kind, and a later one has the same kinds, as morsels of one
// column do. A coded key column's later batch may extend its dictionary,
// or be plain: a streamed column grows its dictionary, and may revert.
type fold struct {
	k      *GroupBy
	x      *keyIndex
	keys   []*Vec
	aggs   []aggState
	ids    []int32
	groups int
}

// start returns a fold that numbers size rows at a time.
func (k *GroupBy) start(size int) fold { return fold{k: k, ids: make([]int32, size)} }

// push folds b's rows. A typed key index that meets nulls or another
// kind moves to the encoded keys.
func (f *fold) push(b *Batch) {
	k := f.k
	if f.x == nil {
		f.init(b)
	} else {
		if f.x.kind != value.Null { // one key column, so far typed
			if v := b.cols[k.Keys[0]]; v.kind != f.x.kind || v.hasNulls() {
				f.x.encode()
			}
		}
		for ki, c := range k.Keys {
			f.keys[ki].follow(b.cols[c])
		}
	}
	for i, a := range k.Aggs {
		f.aggs[i].at(a, b)
	}
	for lo := 0; lo < b.length; lo += len(f.ids) {
		ids := f.x.assign(b, k.Keys, lo, f.ids, true)
		for j, g := range ids {
			// Ids are dense in first-seen order: a row opens a group
			// exactly when its id is the next unused one.
			if int(g) == f.groups {
				f.groups++
				for ki, c := range k.Keys {
					f.keys[ki].appendFrom(b.cols[c], lo+j)
				}
			}
		}
		for i := range f.aggs {
			f.aggs[i].add(lo, ids, f.groups)
		}
	}
}

// init sets the fold up for batches like b.
func (f *fold) init(b *Batch) {
	k, n := f.k, b.length
	keys := keyVecs(b, k.Keys)
	f.x = newKeyIndex(keys)
	// The state starts at the most groups a single coded key can have,
	// else small, and grows geometrically as groups appear.
	start := min(n, 16)
	if len(keys) == 1 && keys[0].dict != nil {
		start = min(n, len(keys[0].dict)+1)
	}
	f.keys = make([]*Vec, len(keys))
	for i, v := range keys {
		if v.dict != nil {
			f.keys[i] = &Vec{kind: v.kind, dict: v.dict, codes: make([]uint32, 0, start)}
		} else {
			f.keys[i] = newVec(v.kind, start)
			*f.keys[i] = part(f.keys[i], 0, 0)
		}
	}
	f.aggs = make([]aggState, len(k.Aggs))
	for i, a := range k.Aggs {
		f.aggs[i].init(a, b, start)
	}
}

// finish returns the groups, sorted by SortKeys.
func (f *fold) finish() (*Batch, error) {
	out := &Batch{schema: f.k.Out, cols: make([]*Vec, 0, len(f.keys)+len(f.aggs)), length: f.groups}
	for _, v := range f.keys {
		if v.nulls != nil {
			v.nulls.grow(v.length)
		}
		out.cols = append(out.cols, v)
	}
	for i := range f.aggs {
		out.cols = append(out.cols, f.aggs[i].result(out.length))
	}
	perm, err := sortPerm(out, f.k.SortKeys, out.length)
	if err != nil || perm == nil {
		return out, err
	}
	return out.gatherRows(perm), nil
}

// appendFrom appends element i of src to v, a dense vector of src's kind
// and, when coded, dictionary — a fold's copy of a key cell: every batch
// a fold is pushed holds its key columns' first kinds, and a coded one
// its first dictionary, as morsels of one column do.
func (v *Vec) appendFrom(src *Vec, i int) {
	v.length++
	switch {
	case v.dict != nil:
		v.codes = append(v.codes, 0)
	case v.kind == value.Bool:
		v.bools = append(v.bools, false)
	case v.kind == value.Int:
		v.ints = append(v.ints, 0)
	case v.kind == value.Float:
		v.floats = append(v.floats, 0)
	case v.kind == value.String:
		v.strs = append(v.strs, "")
	case v.kind == anyKind:
		v.anys = append(v.anys, value.V{})
	}
	if v.nulls != nil {
		v.nulls.grow(v.length)
	}
	v.put(v.length-1, src, i)
}

// follow has v, a fold's copy of a coded key column, take src's
// dictionary where it extends v's, or turn plain where src is plain.
func (v *Vec) follow(src *Vec) {
	switch {
	case v.dict == nil:
	case src.dict != nil:
		if len(src.dict) > len(v.dict) {
			v.dict = src.dict
		}
	case src.kind == value.String:
		strs := make([]string, len(v.codes), cap(v.codes))
		for i, c := range v.codes {
			strs[i] = v.dict[c]
		}
		v.strs, v.codes, v.dict = strs, nil, nil
	}
}

// put sets element j of v, a dense vector of src's kind and, when coded,
// dictionary, to element i of src.
func (v *Vec) put(j int, src *Vec, i int) {
	s := src.slot(i)
	if src.null(i) && v.kind != value.Null {
		if v.nulls == nil {
			v.nulls = NewBitmap(v.length)
		}
		v.nulls.Set(j)
		s = -1
	} else if v.nulls != nil {
		v.nulls.Clear(j)
	}
	switch {
	case v.dict != nil:
		v.codes[j] = at(src.codes, s)
	case v.kind == value.Bool:
		v.bools[j] = at(src.bools, s)
	case v.kind == value.Int:
		v.ints[j] = at(src.ints, s)
	case v.kind == value.Float:
		v.floats[j] = at(src.floats, s)
	case v.kind == value.String:
		v.strs[j] = ""
		if s >= 0 {
			v.strs[j] = src.str(s)
		}
	case v.kind == anyKind:
		v.anys[j] = src.At(i)
	}
}

// putRange sets elements at, at+1, … of v to src's first n elements, as
// put does one: a typed copy where src is a null-free int or float
// column.
func (v *Vec) putRange(at int, src *Vec, n int) {
	if v.kind == src.kind && !src.constant && !src.hasNulls() && v.nulls == nil {
		switch v.kind {
		case value.Int:
			for k := range n {
				v.ints[at+k] = src.ints[src.slot(k)]
			}
			return
		case value.Float:
			for k := range n {
				v.floats[at+k] = src.floats[src.slot(k)]
			}
			return
		}
	}
	for k := range n {
		v.put(at+k, src, k)
	}
}

// at is s[i], or the zero value — a null cell's payload — for i < 0.
func at[T any](s []T, i int) (x T) {
	if i >= 0 {
		x = s[i]
	}
	return x
}

// appendGroupKey appends one key cell in docs/SEMANTICS.md §1.1's
// encoding — kind byte plus display form.
func appendGroupKey(buf []byte, v *Vec, i int) []byte {
	if v.null(i) {
		return append(buf, byte(value.Null))
	}
	s := v.slot(i)
	switch v.kind {
	case value.Bool:
		buf = append(buf, byte(value.Bool))
		if v.bools[s] {
			return append(buf, "true"...)
		}
		return append(buf, "false"...)
	case value.Int:
		buf = append(buf, byte(value.Int))
		return strconv.AppendInt(buf, v.ints[s], 10)
	case value.Float:
		buf = append(buf, byte(value.Float))
		return strconv.AppendFloat(buf, v.floats[s], 'g', -1, 64)
	case value.String:
		buf = append(buf, byte(value.String))
		return append(buf, v.str(s)...)
	default:
		val := v.At(i)
		buf = append(buf, byte(val.Kind()))
		return val.AppendTo(buf)
	}
}

// appendKey appends row i's key over cols in §1.1's encoding: each
// cell's, a zero byte between two.
func appendKey(buf []byte, b *Batch, cols []int, i int) []byte {
	for ki, c := range cols {
		if ki > 0 {
			buf = append(buf, 0)
		}
		buf = appendGroupKey(buf, b.cols[c], i)
	}
	return buf
}

// The folds of aggState. count over anything, sum/avg over int, float,
// bool and all-null columns and min/max over int, float, string and
// all-null ones have typed loops that replicate the accumulators:
// sum/avg/min/max skip nulls, count counts every row, an empty fold
// yields null (avg/min/max) or zero (sum/count). Every other pair folds
// with the accumulator itself.
const (
	foldAcc   = iota
	foldCount // into ints
	foldSum   // into ints: int, bool and all-null columns
	foldFloat // a float column's sum, into floats
	foldAvg   // sums into floats, counts into ints
	foldMin   // the value so far, in the column's kind
	foldMax
)

// allNull is the column a bare aggregate other than count folds: it is
// handed a null per row.
var allNull = &Vec{kind: value.Null}

// aggState is one aggregate's per-group state while a group-by folds: the
// vector of its groups' results so far, grown as groups appear — with
// bools marking the groups that saw a value when a float sum's column has
// had nulls, and a min or max's always — or an accumulator per group.
type aggState struct {
	Vec
	fold     int
	col      *Vec
	nullable bool
	newAcc   func() Accumulator
	accs     []Accumulator
}

// init picks a's fold over b's column, with room for size groups.
func (s *aggState) init(a Agg, b *Batch, size int) {
	s.at(a, b)
	k := s.col.kind
	numeric := k == value.Int || k == value.Float || k == value.Null
	s.kind, s.ints = value.Int, make([]int64, 0, size)
	switch {
	case a.Op == "count":
		s.fold = foldCount
	case a.Op == "sum" && k == value.Float:
		s.fold, s.kind, s.ints, s.floats = foldFloat, value.Float, nil, make([]float64, 0, size)
	case a.Op == "sum" && (numeric || k == value.Bool):
		s.fold = foldSum
	case a.Op == "avg" && (numeric || k == value.Bool):
		s.fold, s.kind, s.floats = foldAvg, value.Float, make([]float64, 0, size)
	case (a.Op == "min" || a.Op == "max") && (numeric || k == value.String):
		s.fold, s.kind, s.bools = foldMin, k, make([]bool, 0, size)
		if a.Op == "max" {
			s.fold = foldMax
		}
		switch k {
		case value.Float:
			s.ints, s.floats = nil, make([]float64, 0, size)
		case value.String:
			s.ints, s.strs = nil, make([]string, 0, size)
		}
	default:
		s.fold, s.newAcc, s.ints, s.accs = foldAcc, a.New, nil, make([]Accumulator, 0, size)
	}
}

// at points the fold at a's column of b, the batch being pushed.
func (s *aggState) at(a Agg, b *Batch) {
	if s.col = allNull; a.Col >= 0 {
		s.col = b.cols[a.Col]
	}
	s.nullable = s.col.hasNulls()
	if s.fold == foldFloat && s.nullable && s.bools == nil {
		// The groups so far saw only values.
		s.bools = make([]bool, len(s.floats), cap(s.floats))
		for g := range s.bools {
			s.bools[g] = true
		}
	}
}

// extend returns s at length n, its new elements zero; nil stays nil.
func extend[T any](s []T, n int) []T {
	if s == nil || n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// add folds rows [lo, lo+len(ids)), of groups ids, into ng groups.
func (s *aggState) add(lo int, ids []int32, ng int) {
	s.ints, s.floats, s.strs = extend(s.ints, ng), extend(s.floats, ng), extend(s.strs, ng)
	s.bools, s.accs = extend(s.bools, ng), extend(s.accs, ng)
	c := s.col
	for j, g := range ids {
		i := lo + j
		p := c.slot(i)
		switch {
		case s.fold == foldCount:
			s.ints[g]++
		case s.fold == foldAcc:
			if s.accs[g] == nil {
				s.accs[g] = s.newAcc()
			}
			s.accs[g].Add(c.At(i))
		case p < 0 || s.fold != foldSum && s.nullable && c.null(i):
			// A selection's hole adds nothing, nor does a null; an int
			// sum adds a null's slot, which stores 0.
		case s.fold == foldSum:
			if c.kind == value.Int {
				s.ints[g] += c.ints[p]
			} else if c.kind == value.Bool && c.bools[p] {
				s.ints[g]++
			}
		case s.fold == foldFloat:
			s.floats[g] += c.floats[p]
			if s.bools != nil {
				s.bools[g] = true
			}
		case s.fold == foldAvg:
			s.floats[g] += c.At(i).Float()
			s.ints[g]++
		case c.kind == value.Int:
			if s.wins(g, cmp.Compare(c.ints[p], s.ints[g])) {
				s.ints[g] = c.ints[p]
			}
		case c.kind == value.Float:
			if s.wins(g, cmpFloat(c.floats[p], s.floats[g])) {
				s.floats[g] = c.floats[p]
			}
		default: // a string min or max
			if str := c.str(p); s.wins(g, strings.Compare(str, s.strs[g])) {
				s.strs[g] = str
			}
		}
	}
}

// wins reports whether a value that compares d to group g's min or max
// so far replaces it: it does when it is the group's first.
func (s *aggState) wins(g int32, d int) bool {
	if !s.bools[g] || d < 0 && s.fold == foldMin || d > 0 && s.fold == foldMax {
		s.bools[g] = true
		return true
	}
	return false
}

// result is the state as the vector of its ng groups' results.
func (s *aggState) result(ng int) *Vec {
	s.length = ng
	switch s.fold {
	case foldAcc:
		vals := make([]value.V, ng)
		for g, acc := range s.accs {
			vals[g] = acc.Result()
		}
		return compress(vals)
	case foldFloat:
		// A group with only nulls sums to the int 0 (the accumulator never
		// sees a float), so the kinds come out as the accumulator's.
		if slices.Contains(s.bools, false) {
			vals := make([]value.V, ng)
			for g, seen := range s.bools {
				vals[g] = value.NewInt(0)
				if seen {
					vals[g] = value.NewFloat(s.floats[g])
				}
			}
			return compress(vals)
		}
		s.bools = nil
	case foldAvg:
		for g, n := range s.ints {
			if n == 0 {
				s.setNull(g)
			} else {
				s.floats[g] /= float64(n)
			}
		}
		s.ints = nil
	case foldMin, foldMax:
		for g, seen := range s.bools {
			if !seen {
				s.setNull(g) // a group with no value
			}
		}
		s.bools = nil
	}
	return &s.Vec
}
