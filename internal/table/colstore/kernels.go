package colstore

import (
	"cmp"
	"fmt"
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
// runs per-column, and the kept rows become a selection — one index
// vector, composed with each selection the input already held; no column
// is copied.
type Filter struct {
	// Pred is the compiled predicate (CompileVec of the
	// filter_expression).
	Pred VecEval
}

// Run implements Kernel.
func (k *Filter) Run(b *Batch) (*Batch, error) {
	idx := kept(k.Pred(b))
	if idx == nil {
		// Every row passes — a filter the decoder already applied, run
		// again by the pipeline. Batches are immutable: share the input.
		return b, nil
	}
	return b.selectRows(idx), nil
}

// kept returns the positions of pred's truthy elements, ascending, or
// nil when every element is truthy.
func kept(pred *Vec) []int32 {
	keep := truthy(pred)
	n := 0
	for _, t := range keep {
		if t {
			n++
		}
	}
	if n == len(keep) {
		return nil
	}
	idx := make([]int32, 0, n)
	for i, t := range keep {
		if t {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// ---------------------------------------------------------------------
// map-expr

// MapExpr computes one expression column over the whole batch — the
// vectorized `map` task with the expr operator. Input columns are
// shared, not copied; only the computed column is new.
type MapExpr struct {
	// Eval is the compiled expression.
	Eval VecEval
	// Out is the output schema (input extended with, or overwriting,
	// the output column) and Slot the output column's index in it.
	Out  *schema.Schema
	Slot int
}

// Run implements Kernel.
func (k *MapExpr) Run(b *Batch) (*Batch, error) {
	return b.withColumn(k.Out, k.Slot, k.Eval(b).densify()), nil
}

// ---------------------------------------------------------------------
// topn

// TopN keeps the first Limit rows by one key column — a bounded-heap
// selection instead of a full sort when the input is larger than the
// budget. Configuration mirrors the topn task restricted to a single
// global group and a single order key.
type TopN struct {
	// Key is the order column's index; Desc flips the order.
	Key  int
	Desc bool
	// Limit is the row budget.
	Limit int
}

// Run implements Kernel.
func (k *TopN) Run(b *Batch) (*Batch, error) {
	n := b.length
	cmp := keyComparator(b.cols[k.Key])
	// less is the row order of the output: key order, ties broken by
	// original position — exactly the row kernel's stable sort.
	less := func(i, j int32) bool {
		c := cmp(int(i), int(j))
		if c != 0 {
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return i < j
	}
	if n <= k.Limit {
		idx := identity(n)
		sort.Slice(idx, func(x, y int) bool { return less(idx[x], idx[y]) })
		return b.selectRows(idx), nil
	}
	// Bounded heap: the worst kept row sits at the root; a better
	// candidate evicts it. O(n log limit) instead of O(n log n).
	h := identity(k.Limit)
	worse := func(i, j int32) bool { return less(j, i) }
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, worse)
	}
	for i := k.Limit; i < n; i++ {
		if less(int32(i), h[0]) {
			h[0] = int32(i)
			siftDown(h, 0, worse)
		}
	}
	sort.Slice(h, func(x, y int) bool { return less(h[x], h[y]) })
	return b.selectRows(h), nil
}

// identity returns the row indices 0..n-1.
func identity(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// siftDown restores the heap property at root i under the given
// ordering (the "largest" element, per worse, bubbles to the top).
func siftDown(h []int32, i int, worse func(a, b int32) bool) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && worse(h[r], h[l]) {
			m = r
		}
		if !worse(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
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
		core = func(i, j int) int { return value.Compare(v.At(i), v.At(j)) }
	}
	if !v.hasNulls() {
		return core
	}
	return func(i, j int) int {
		in, jn := v.null(i), v.null(j)
		switch {
		case in && jn:
			return 0
		case in:
			return -1
		case jn:
			return 1
		}
		return core(i, j)
	}
}

// sortPerm returns the permutation that orders b's rows stably by keys
// (nil for no keys) — the columnar analogue of table.Sort, sorted under
// typed per-column comparators. It is the same algorithm
// (sort.SliceStable) over the same comparison outcomes as table.Sort,
// so the two agree even where value.Compare is not an order (NaN
// compares equal to every float).
func sortPerm(b *Batch, keys []table.SortKey) ([]int32, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	type bound struct {
		cmp  func(i, j int) int
		desc bool
	}
	bounds := make([]bound, len(keys))
	for i, k := range keys {
		j := b.schema.Index(k.Column)
		if j < 0 {
			return nil, fmt.Errorf("colstore: sort column %q not found", k.Column)
		}
		bounds[i] = bound{cmp: keyComparator(b.cols[j]), desc: k.Desc}
	}
	idx := identity(b.length)
	sort.SliceStable(idx, func(x, y int) bool {
		for _, k := range bounds {
			if c := k.cmp(int(idx[x]), int(idx[y])); c != 0 {
				return (c < 0) != k.desc
			}
		}
		return false
	})
	return idx, nil
}

// Sort is the vectorized sort task: a stable multi-key sort of the whole
// batch, handed on as a selection through the sorted permutation.
type Sort struct {
	// Keys are the sort criteria, most significant first.
	Keys []table.SortKey
}

// Run implements Kernel.
func (k *Sort) Run(b *Batch) (*Batch, error) {
	perm, err := sortPerm(b, k.Keys)
	if err != nil || perm == nil {
		return b, err
	}
	return b.selectRows(perm), nil
}

// Limit is the vectorized limit task: the first N rows, as a selection.
type Limit struct {
	// N is the row budget.
	N int
}

// Run implements Kernel.
func (k *Limit) Run(b *Batch) (*Batch, error) {
	if k.N >= b.length {
		return b, nil
	}
	return b.selectRows(identity(k.N)), nil
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

// GroupBy is the vectorized hash aggregation kernel: group ids are
// assigned in one pass over the key columns, then each aggregate folds
// its column per group — in a tight loop over preallocated per-group
// slices where it has one, else with the aggregate's own accumulator —
// reading selections through their indices. Grouping identity and output
// ordering match the row hashGrouper exactly (kind-tagged display-form
// keys; result sorted by SortKeys). Its output is dense: the groups are
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

// Run implements Kernel.
func (k *GroupBy) Run(b *Batch) (*Batch, error) {
	n := b.length
	gids := make([]int32, n)
	keyRows := groupIDs(b, k.Keys, gids)
	ng := len(keyRows)
	outCols := make([]*Vec, 0, len(k.Keys)+len(k.Aggs))
	for _, c := range k.Keys {
		outCols = append(outCols, gather(b.cols[c], keyRows))
	}
	for _, a := range k.Aggs {
		outCols = append(outCols, runAgg(a, b, gids, ng))
	}
	out := &Batch{schema: k.Out, cols: outCols, length: ng}
	perm, err := sortPerm(out, k.SortKeys)
	if err != nil || perm == nil {
		return out, err
	}
	return out.gatherRows(perm), nil
}

// groupIDs assigns a dense group id to every row (into gids) and
// returns the first input row of each group, in first-seen order.
func groupIDs(b *Batch, keys []int, gids []int32) (keyRows []int32) {
	newKeyIndex(keyVecs(b, keys)).assign(b, keys, gids, true)
	for i, g := range gids {
		// Ids are dense in first-seen order: a row opens a group exactly
		// when its id is the next unused one.
		if int(g) == len(keyRows) {
			keyRows = append(keyRows, int32(i))
		}
	}
	return keyRows
}

// appendGroupKey appends one key cell in the row grouper's encoding —
// kind byte plus display form — so both engines assign identical group
// identities.
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

// runAgg folds one aggregate over the whole batch into a per-group
// result vector, reading a selected column through its indices. count
// over anything, sum/avg over int, float, bool and all-null columns and
// min/max over int, float, string and all-null ones have typed loops
// that replicate the row accumulators: sum/avg/min/max skip nulls, count
// counts every row, an empty fold yields null (avg/min/max) or zero
// (sum/count). Every other pair folds with the accumulator itself.
func runAgg(a Agg, b *Batch, gids []int32, ng int) *Vec {
	if a.Op == "count" {
		counts := make([]int64, ng)
		for _, g := range gids {
			counts[g]++
		}
		return &Vec{kind: value.Int, ints: counts, length: ng}
	}
	var col *Vec
	if a.Col >= 0 {
		col = b.cols[a.Col]
	} else {
		col = &Vec{kind: value.Null, length: b.length} // the row grouper adds nulls
	}
	k := col.kind
	numeric := k == value.Int || k == value.Float || k == value.Null
	switch {
	case a.Op == "sum" && (numeric || k == value.Bool):
		return aggSum(col, gids, ng)
	case a.Op == "avg" && (numeric || k == value.Bool):
		return aggAvg(col, gids, ng)
	case a.Op == "min" && (numeric || k == value.String):
		return aggMinMax(col, gids, ng, true)
	case a.Op == "max" && (numeric || k == value.String):
		return aggMinMax(col, gids, ng, false)
	}
	return fold(a.New, col, gids, ng)
}

// fold runs one fresh accumulator per group over the column's elements
// in row order — the row path's own fold, so results and their kinds are
// the row path's by construction.
func fold(newAcc func() Accumulator, col *Vec, gids []int32, ng int) *Vec {
	accs := make([]Accumulator, ng)
	for g := range accs {
		accs[g] = newAcc()
	}
	for i, g := range gids {
		accs[g].Add(col.At(i))
	}
	vals := make([]value.V, ng)
	for g, acc := range accs {
		vals[g] = acc.Result()
	}
	return compress(vals)
}

func aggSum(col *Vec, gids []int32, ng int) *Vec {
	if col.kind == value.Float {
		sums := make([]float64, ng)
		if !col.hasNulls() {
			for i, g := range gids {
				sums[g] += col.floats[col.slot(i)]
			}
			return &Vec{kind: value.Float, floats: sums, length: ng}
		}
		// A group with only nulls sums to the int 0 on the row path
		// (the accumulator never sees a float); track which groups saw
		// a value so the kinds come out identical.
		seen := make([]bool, ng)
		for i, g := range gids {
			if !col.null(i) {
				sums[g] += col.floats[col.slot(i)]
				seen[g] = true
			}
		}
		allSeen := true
		for _, s := range seen {
			if !s {
				allSeen = false
				break
			}
		}
		if allSeen {
			return &Vec{kind: value.Float, floats: sums, length: ng}
		}
		vals := make([]value.V, ng)
		for g := range vals {
			if seen[g] {
				vals[g] = value.NewFloat(sums[g])
			} else {
				vals[g] = value.NewInt(0)
			}
		}
		return compress(vals)
	}
	// Int, bool and all-null columns sum as int64; null slots store 0,
	// which is also what the row accumulator's coercion adds, and a
	// selection's holes add nothing.
	sums := make([]int64, ng)
	switch col.kind {
	case value.Int:
		for i, g := range gids {
			if s := col.slot(i); s >= 0 {
				sums[g] += col.ints[s]
			}
		}
	case value.Bool:
		for i, g := range gids {
			if s := col.slot(i); s >= 0 && col.bools[s] {
				sums[g]++
			}
		}
	}
	return &Vec{kind: value.Int, ints: sums, length: ng}
}

func aggAvg(col *Vec, gids []int32, ng int) *Vec {
	sums := make([]float64, ng)
	counts := make([]int64, ng)
	add := func(i int, g int32) {
		s := col.slot(i)
		switch col.kind {
		case value.Int:
			sums[g] += float64(col.ints[s])
		case value.Float:
			sums[g] += col.floats[s]
		case value.Bool:
			if col.bools[s] {
				sums[g]++
			}
		}
		counts[g]++
	}
	if col.hasNulls() {
		for i, g := range gids {
			if !col.null(i) {
				add(i, g)
			}
		}
	} else {
		for i, g := range gids {
			add(i, g)
		}
	}
	out := newVec(value.Float, ng)
	for g := range sums {
		if counts[g] == 0 {
			out.setNull(g)
			continue
		}
		out.floats[g] = sums[g] / float64(counts[g])
	}
	return out
}

func aggMinMax(col *Vec, gids []int32, ng int, min bool) *Vec {
	if col.kind == value.Null {
		return newVec(value.Null, ng)
	}
	out := newVec(col.kind, ng)
	set := make([]bool, ng)
	hasNulls := col.hasNulls()
	for i, g := range gids {
		if hasNulls && col.null(i) {
			continue
		}
		if !set[g] {
			set[g] = true
			out.set(int(g), col.At(i))
			continue
		}
		s := col.slot(i)
		switch col.kind {
		case value.Int:
			x := col.ints[s]
			if min == (x < out.ints[g]) && x != out.ints[g] {
				out.ints[g] = x
			}
		case value.Float:
			x := col.floats[s]
			if (min && x < out.floats[g]) || (!min && x > out.floats[g]) {
				out.floats[g] = x
			}
		case value.String:
			x := col.str(s)
			if (min && x < out.strs[g]) || (!min && x > out.strs[g]) {
				out.strs[g] = x
			}
		}
	}
	for g, s := range set {
		if !s {
			out.setNull(g)
		}
	}
	return out
}
