package colstore

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// ErrFallback reports that a kernel met data it has no typed path for
// (an aggregate over a mixed or string column, say). The engine catches
// it and re-runs the stage through the row kernel — never an error the
// user sees.
var ErrFallback = errors.New("colstore: not vectorizable for this data")

// Kernel is one vectorized pipeline stage: a batch in, a batch out.
type Kernel interface {
	Run(b *Batch) (*Batch, error)
}

// ---------------------------------------------------------------------
// filter

// Filter keeps the rows whose predicate evaluates truthy: the predicate
// runs per-column into a selection bitmap, and the kept rows gather
// into a new batch.
type Filter struct {
	// Pred is the compiled predicate (CompileVec of the
	// filter_expression).
	Pred VecEval
}

// Run implements Kernel.
func (k *Filter) Run(b *Batch) (*Batch, error) {
	keep := truthyBools(k.Pred(b))
	if !slices.Contains(keep, false) {
		// Every row passes — a filter the decoder already applied, run
		// again by the pipeline. Batches are immutable: share the input.
		return b, nil
	}
	sel := NewBitmap(b.length)
	for i, t := range keep {
		if t {
			sel.Set(i)
		}
	}
	return b.SelectBitmap(sel), nil
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
	less := func(i, j int) bool {
		c := cmp(i, j)
		if c != 0 {
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return i < j
	}
	if n <= k.Limit {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(x, y int) bool { return less(idx[x], idx[y]) })
		return b.Select(idx), nil
	}
	// Bounded heap: the worst kept row sits at the root; a better
	// candidate evicts it. O(n log limit) instead of O(n log n).
	h := make([]int, k.Limit)
	for i := range h {
		h[i] = i
	}
	worse := func(i, j int) bool { return less(j, i) }
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, worse)
	}
	for i := k.Limit; i < n; i++ {
		if less(i, h[0]) {
			h[0] = i
			siftDown(h, 0, worse)
		}
	}
	sort.Slice(h, func(x, y int) bool { return less(h[x], h[y]) })
	return b.Select(h), nil
}

// siftDown restores the heap property at root i under the given
// ordering (the "largest" element, per worse, bubbles to the top).
func siftDown(h []int, i int, worse func(a, b int) bool) {
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
// the typed payload order.
func keyComparator(v *Vec) func(i, j int) int {
	var core func(i, j int) int
	switch v.kind {
	case value.Int:
		core = func(i, j int) int { return cmpInt64(v.ints[i], v.ints[j]) }
	case value.Float:
		core = func(i, j int) int { return cmpFloat(v.floats[i], v.floats[j]) }
	case value.String:
		core = func(i, j int) int { return strings.Compare(v.str(i), v.str(j)) }
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

// sortBatch returns a batch with rows stably ordered by keys — the
// columnar analogue of table.Sort: one permutation sorted under typed
// per-column comparators, then one gather. It is the same algorithm
// (sort.SliceStable) over the same comparison outcomes as table.Sort,
// so the two agree even where value.Compare is not an order (NaN
// compares equal to every float).
func sortBatch(b *Batch, keys []table.SortKey) (*Batch, error) {
	if len(keys) == 0 {
		return b, nil
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
	idx := make([]int, b.length)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		for _, k := range bounds {
			if c := k.cmp(idx[x], idx[y]); c != 0 {
				return (c < 0) != k.desc
			}
		}
		return false
	})
	return b.Select(idx), nil
}

// Sort is the vectorized sort task: a stable multi-key sort of the whole
// batch.
type Sort struct {
	// Keys are the sort criteria, most significant first.
	Keys []table.SortKey
}

// Run implements Kernel.
func (k *Sort) Run(b *Batch) (*Batch, error) { return sortBatch(b, k.Keys) }

// Limit is the vectorized limit task: the first N rows.
type Limit struct {
	// N is the row budget.
	N int
}

// Run implements Kernel.
func (k *Limit) Run(b *Batch) (*Batch, error) {
	if k.N >= b.length {
		return b, nil
	}
	idx := make([]int, k.N)
	for i := range idx {
		idx[i] = i
	}
	return b.Select(idx), nil
}

// ---------------------------------------------------------------------
// groupby

// AggOp enumerates the aggregates with a typed columnar path. The rest
// of the aggregate registry (count_distinct, stddev, user aggregates…)
// keeps the row path.
type AggOp uint8

// The vectorized aggregate operators.
const (
	AggCount AggOp = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// Agg is one aggregate of a GroupBy kernel.
type Agg struct {
	// Op is the aggregate operator.
	Op AggOp
	// Col is the input column the aggregate folds; -1 for a bare count.
	Col int
}

// GroupBy is the vectorized hash aggregation kernel: group ids are
// assigned in one pass over the key columns, then each aggregate folds
// its column in a tight loop over preallocated per-group accumulator
// slices. Grouping identity and output ordering match the row
// hashGrouper exactly (kind-tagged display-form keys; result sorted by
// SortKeys).
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
	for _, a := range k.Aggs {
		if a.Col < 0 {
			continue
		}
		kind := b.cols[a.Col].kind
		switch a.Op {
		case AggSum, AggAvg:
			if kind != value.Int && kind != value.Float && kind != value.Bool && kind != value.Null {
				return nil, ErrFallback
			}
		case AggMin, AggMax:
			if kind != value.Int && kind != value.Float && kind != value.String && kind != value.Null {
				return nil, ErrFallback
			}
		}
	}
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
	return sortBatch(out, k.SortKeys)
}

// groupIDs assigns a dense group id to every row (into gids) and
// returns the first input row of each group, in first-seen order.
func groupIDs(b *Batch, keys []int, gids []int32) (keyRows []int) {
	newKeyIndex(keyVecs(b, keys)).assign(b, keys, gids, true)
	for i, g := range gids {
		// Ids are dense in first-seen order: a row opens a group exactly
		// when its id is the next unused one.
		if int(g) == len(keyRows) {
			keyRows = append(keyRows, i)
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
	switch v.kind {
	case value.Bool:
		buf = append(buf, byte(value.Bool))
		if v.bools[i] {
			return append(buf, "true"...)
		}
		return append(buf, "false"...)
	case value.Int:
		buf = append(buf, byte(value.Int))
		return strconv.AppendInt(buf, v.ints[i], 10)
	case value.Float:
		buf = append(buf, byte(value.Float))
		return strconv.AppendFloat(buf, v.floats[i], 'g', -1, 64)
	case value.String:
		buf = append(buf, byte(value.String))
		return append(buf, v.str(i)...)
	default:
		val := v.At(i)
		buf = append(buf, byte(val.Kind()))
		return val.AppendTo(buf)
	}
}

// runAgg folds one aggregate over the whole batch into a per-group
// result vector. Semantics replicate the row accumulators: sum/avg/
// min/max skip nulls, count counts every row, an empty fold yields
// null (avg/min/max) or zero (sum/count).
func runAgg(a Agg, b *Batch, gids []int32, ng int) *Vec {
	if a.Op == AggCount {
		counts := make([]int64, ng)
		for _, g := range gids {
			counts[g]++
		}
		return &Vec{kind: value.Int, ints: counts, length: ng}
	}
	col := b.cols[a.Col]
	switch a.Op {
	case AggSum:
		return aggSum(col, gids, ng)
	case AggAvg:
		return aggAvg(col, gids, ng)
	case AggMin:
		return aggMinMax(col, gids, ng, true)
	case AggMax:
		return aggMinMax(col, gids, ng, false)
	}
	// Unreachable: kernels are built only with the operators above.
	panic("colstore: unknown aggregate op")
}

func aggSum(col *Vec, gids []int32, ng int) *Vec {
	if col.kind == value.Float {
		sums := make([]float64, ng)
		if !col.hasNulls() {
			for i, g := range gids {
				sums[g] += col.floats[i]
			}
			return &Vec{kind: value.Float, floats: sums, length: ng}
		}
		// A group with only nulls sums to the int 0 on the row path
		// (the accumulator never sees a float); track which groups saw
		// a value so the kinds come out identical.
		seen := make([]bool, ng)
		for i, g := range gids {
			if !col.nulls.Get(i) {
				sums[g] += col.floats[i]
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
	// which is also what the row accumulator's coercion adds.
	sums := make([]int64, ng)
	switch col.kind {
	case value.Int:
		for i, g := range gids {
			sums[g] += col.ints[i]
		}
	case value.Bool:
		for i, g := range gids {
			if col.bools[i] {
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
		switch col.kind {
		case value.Int:
			sums[g] += float64(col.ints[i])
		case value.Float:
			sums[g] += col.floats[i]
		case value.Bool:
			if col.bools[i] {
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
		switch col.kind {
		case value.Int:
			x := col.ints[i]
			if min == (x < out.ints[g]) && x != out.ints[g] {
				out.ints[g] = x
			}
		case value.Float:
			x := col.floats[i]
			if (min && x < out.floats[g]) || (!min && x > out.floats[g]) {
				out.floats[g] = x
			}
		case value.String:
			x := col.str(i)
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
