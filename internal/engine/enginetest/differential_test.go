// Package enginetest cross-checks the batch engine's two execution
// paths and the data object's two layouts: every flow runs on the row
// kernels and on the columnar kernels, over row-backed and over
// column-backed inputs, and the produced tables must be identical. The
// row path over row-backed inputs is the reference semantics; any
// divergence is a columnar bug.
package enginetest

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"shareinsights/internal/dag"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

func buildGraph(t testing.TB, src string) *dag.Graph {
	t.Helper()
	f, err := flowfile.Parse("difftest", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(f, task.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func runPath(t testing.TB, g *dag.Graph, sources map[string]*table.Table, columnar string, par int) *batch.Result {
	t.Helper()
	e := &batch.Executor{Parallelism: par, Columnar: columnar}
	res, err := e.RunContext(context.Background(), g, &task.Env{}, sources)
	if err != nil {
		t.Fatalf("columnar=%s parallelism=%d: %v", columnar, par, err)
	}
	return res
}

// rowKey renders one row into a collision-safe multiset key: kind tag
// plus canonical display form per cell.
func rowKey(r table.Row) string {
	buf := make([]byte, 0, 64)
	for _, v := range r {
		buf = append(buf, byte(v.Kind()))
		buf = v.AppendTo(buf)
		buf = append(buf, 0)
	}
	return string(buf)
}

// multiset returns row counts keyed by rowKey.
func multiset(tb *table.Table) map[string]int {
	m := make(map[string]int, tb.Len())
	for _, r := range tb.Rows() {
		m[rowKey(r)]++
	}
	return m
}

func sameMultiset(a, b *table.Table) bool {
	if !a.Schema().Equal(b.Schema()) || a.Len() != b.Len() {
		return false
	}
	ma, mb := multiset(a), multiset(b)
	if len(ma) != len(mb) {
		return false
	}
	for k, n := range ma {
		if mb[k] != n {
			return false
		}
	}
	return true
}

// diffFlow runs one flow through both engines, over both input
// backings, and compares every output data object with the reference:
// the row kernels over row-backed inputs.
func diffFlow(t *testing.T, flow string, sources map[string]*table.Table) {
	t.Helper()
	g := buildGraph(t, flow)
	row := runPath(t, g, sources, batch.ColumnarOff, 1)
	diffInputs(t, g, row, "row-backed", sources)
	diffInputs(t, g, row, "column-backed", columnBacked(sources))
}

// columnBacked rebuilds every source through the column builder, the
// way the format decoders produce them: typed vectors, with mixed-kind
// and time columns boxed.
func columnBacked(sources map[string]*table.Table) map[string]*table.Table {
	out := make(map[string]*table.Table, len(sources))
	for name, src := range sources {
		b := colstore.NewBuilder(src.Schema())
		for _, r := range src.Rows() {
			b.Append(r)
		}
		out[name] = b.Table()
	}
	return out
}

// diffInputs compares every run shape over one set of inputs with the
// reference run row. At parallelism 1 the comparison is exact (same
// rows, same order, same kinds); at parallelism 4 row-local shard order
// may differ from sequential order, so the comparison is
// order-insensitive.
func diffInputs(t *testing.T, g *dag.Graph, row *batch.Result, inputs string, sources map[string]*table.Table) {
	t.Helper()
	for _, mode := range []string{batch.ColumnarOff, batch.ColumnarOn} {
		col := runPath(t, g, sources, mode, 1)
		for _, name := range row.SortedNames() {
			want, _ := row.Table(name)
			got, ok := col.Table(name)
			if !ok {
				t.Fatalf("%s inputs, columnar=%s run missing output %s", inputs, mode, name)
			}
			if !want.Equal(got) {
				t.Errorf("%s inputs, columnar=%s: D.%s differs from row path:\nrow:\n%s\ncolumnar:\n%s",
					inputs, mode, name, want.Format(10), got.Format(10))
			}
			assertKindsEqual(t, name, want, got)
		}
	}
	par := runPath(t, g, sources, batch.ColumnarOn, 4)
	for _, name := range row.SortedNames() {
		want, _ := row.Table(name)
		got, _ := par.Table(name)
		if got == nil || !sameMultiset(want, got) {
			t.Errorf("%s inputs, columnar parallel run: D.%s row multiset differs from row path", inputs, name)
		}
	}

	// Optimized-vs-unoptimized: the same flow under a cost-based plan —
	// once with heuristic-only evidence, once with an adversarial stats
	// feed claiming extreme selectivities to force reorders — must match
	// the unplanned row run cell-for-cell on both engines.
	for si, stats := range []dag.StatsFn{nil, adversarialStats(1), adversarialStats(2)} {
		for _, mode := range []string{batch.ColumnarOff, batch.ColumnarOn} {
			plan := dag.Optimize(g, dag.PlanOptions{Stats: stats})
			// The differential flows don't mark endpoints, so every
			// output is formally a dead sink; keep them all live — the
			// point here is the stage rewrites, not sink elimination.
			plan.SkippedSinks = nil
			opt := runPlanned(t, g, plan, sources, mode)
			for _, name := range row.SortedNames() {
				want, _ := row.Table(name)
				got, ok := opt.Table(name)
				if !ok {
					t.Fatalf("%s inputs, stats=%d columnar=%s planned run missing output %s", inputs, si, mode, name)
				}
				if !want.Equal(got) {
					t.Errorf("%s inputs, stats=%d columnar=%s: planned D.%s differs from unplanned row path:\nplan:\n%s\nrow:\n%s\nplanned:\n%s",
						inputs, si, mode, name, plan.Format(), want.Format(10), got.Format(10))
					continue
				}
				assertKindsEqual(t, name, want, got)
			}
		}
	}
}

// runPlanned executes the graph under a fixed cost-based plan.
func runPlanned(t testing.TB, g *dag.Graph, plan *dag.Plan, sources map[string]*table.Table, columnar string) *batch.Result {
	t.Helper()
	e := &batch.Executor{Parallelism: 1, Columnar: columnar, Plan: plan}
	res, err := e.RunContext(context.Background(), g, &task.Env{}, sources)
	if err != nil {
		t.Fatalf("planned columnar=%s: %v", columnar, err)
	}
	return res
}

// adversarialStats fabricates deterministic per-stage "observed"
// statistics from a hash of the stage identity: every stage gets a
// different extreme selectivity, so the planner's reorder and pushdown
// rules all fire somewhere across the sweep. Every fourth stage reports
// no evidence, exercising the history→heuristic fallback mid-plan.
func adversarialStats(seed uint64) dag.StatsFn {
	return func(output, stage string) (dag.StageStats, bool) {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d\x00%s\x00%s", seed, output, stage)
		x := h.Sum64()
		return dag.StageStats{Selectivity: float64(x%1000) / 999, HasSelectivity: true}, x%4 != 0
	}
}

// assertKindsEqual guards against kind drift (e.g. Int 0 becoming Float
// 0): Table.Equal uses value.Compare, which tolerates some cross-kind
// pairs, but downstream group keys do not.
func assertKindsEqual(t *testing.T, name string, want, got *table.Table) {
	t.Helper()
	for i, r := range want.Rows() {
		for j, v := range r {
			if g := got.Rows()[i][j]; g.Kind() != v.Kind() {
				t.Errorf("D.%s row %d col %d: kind %v (row path) vs %v (columnar)",
					name, i, j, v.Kind(), g.Kind())
				return
			}
		}
	}
}

// salesTable builds the standard differential fixture: a low-cardinality
// group key, nullable int and float measures, a free-text column and a
// bool flag. nullRate is the per-cell chance (in percent) that a measure
// is null.
func salesTable(n int, seed int64, nullRate int) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	tb := table.New(schema.MustFromNames("region", "product", "amount", "ratio", "flag"))
	regions := []string{"east", "west", "north", "south", "remote"}
	for i := 0; i < n; i++ {
		amount := value.NewInt(int64(rng.Intn(200) - 50))
		ratio := value.NewFloat(rng.Float64()*4 - 2)
		if rng.Intn(100) < nullRate {
			amount = value.VNull
		}
		if rng.Intn(100) < nullRate {
			ratio = value.VNull
		}
		tb.AppendValues(
			value.NewString(regions[rng.Intn(len(regions))]),
			value.NewString(fmt.Sprintf("product %c%d", 'a'+rng.Intn(4), rng.Intn(6))),
			amount,
			ratio,
			value.NewBool(rng.Intn(2) == 0),
		)
	}
	return tb
}

const diffHeader = `
D:
  src: [region, product, amount, ratio, flag]

`

// fixedFlows are hand-picked pipelines covering each vectorized kernel,
// kernel chains, and shapes that must fall back to the row path.
var fixedFlows = []struct {
	name string
	flow string
}{
	{"filter_expr", diffHeader + `
F:
  D.out: D.src | T.keep

T:
  keep:
    type: filter_by
    filter_expression: amount > 10 and flag
`},
	{"filter_nulls", diffHeader + `
F:
  D.out: D.src | T.keep

T:
  keep:
    type: filter_by
    filter_expression: ratio < 0.5 or amount == 0
`},
	{"map_expr", diffHeader + `
F:
  D.out: D.src | T.double

T:
  double:
    type: map
    operator: expr
    expression: amount * 2 + 1
    output: double
`},
	{"map_overwrite", diffHeader + `
F:
  D.out: D.src | T.scale

T:
  scale:
    type: map
    operator: expr
    expression: ratio / 2
    output: ratio
`},
	{"groupby_aggs", diffHeader + `
F:
  D.out: D.src | T.agg

T:
  agg:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
      - operator: avg
        apply_on: ratio
        out_field: mean
      - operator: min
        apply_on: amount
        out_field: lo
      - operator: max
        apply_on: ratio
        out_field: hi
      - operator: count
        out_field: n
`},
	{"groupby_ordered", diffHeader + `
F:
  D.out: D.src | T.agg

T:
  agg:
    type: groupby
    groupby: [region, product]
    orderby_aggregates: true
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
`},
	{"topn_global", diffHeader + `
F:
  D.out: D.src | T.top

T:
  top:
    type: topn
    orderby_column: [amount DESC]
    limit: 7
`},
	{"topn_asc_float", diffHeader + `
F:
  D.out: D.src | T.top

T:
  top:
    type: topn
    orderby_column: [ratio]
    limit: 5
`},
	{"topn_multi_key", diffHeader + `
F:
  D.out: D.src | T.top

T:
  top:
    type: topn
    orderby_column: [region, amount DESC, ratio]
    limit: 9
`},
	// Both fused pairs: the join with the probe-side filter after it, and
	// the sort with the limit after it.
	{"join_filter_sort_limit", diffHeader + `
F:
  D.dim: D.src | T.first30
  D.out: (D.src, D.dim) | T.j | T.keep | T.order | T.first

T:
  first30:
    type: limit
    limit: 30
  j:
    type: join
    left: src by product
    right: dim by product
    join_condition: left outer
  keep:
    type: filter_by
    filter_expression: src_amount > 0
  order:
    type: sort
    orderby_column: [src_ratio DESC, dim_region]
  first:
    type: limit
    limit: 25
`},
	{"kernel_chain", diffHeader + `
F:
  D.out: D.src | T.keep | T.double | T.agg | T.top

T:
  keep:
    type: filter_by
    filter_expression: amount > 0
  double:
    type: map
    operator: expr
    expression: amount + ratio
    output: score
  agg:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: score
        out_field: total
  top:
    type: topn
    orderby_column: [total DESC]
    limit: 3
`},
	{"row_stage_interleaved", diffHeader + `
F:
  D.out: D.src | T.keep | T.srt | T.second | T.cut

T:
  keep:
    type: filter_by
    filter_expression: amount != 0
  srt:
    type: sort
    orderby_column: [amount DESC, region]
  second:
    type: filter_by
    filter_expression: flag
  cut:
    type: limit
    limit: 9
`},
	{"filter_chain_reorder", diffHeader + `
F:
  D.out: D.src | T.a | T.b | T.c

T:
  a:
    type: filter_by
    filter_expression: amount > -40
  b:
    type: filter_by
    filter_expression: region == 'east'
  c:
    type: filter_by
    filter_expression: ratio < 1.5
`},
	{"filter_map_filter_pushdown", diffHeader + `
F:
  D.out: D.src | T.widen | T.keep | T.narrow

T:
  widen:
    type: map
    operator: expr
    expression: amount + 1
    output: bumped
  keep:
    type: filter_by
    filter_expression: flag
  narrow:
    type: filter_by
    filter_expression: bumped > 5
`},
}

func TestFixedFlowsDifferential(t *testing.T) {
	for _, tc := range fixedFlows {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, rows := range []int{0, 3, 300, 5000} {
				for _, nullRate := range []int{0, 25, 100} {
					src := salesTable(rows, int64(rows)*31+int64(nullRate), nullRate)
					diffFlow(t, tc.flow, map[string]*table.Table{"src": src})
				}
			}
		})
	}
}

// TestIneligibleColumnsDifferential feeds the same pipelines data the
// columnar converter must decline — a Time column and a mixed-kind
// column — and checks the forced-on engine still matches the row path
// (it falls back per stage rather than failing).
func TestIneligibleColumnsDifferential(t *testing.T) {
	tb := table.New(schema.MustFromNames("region", "product", "amount", "ratio", "flag"))
	for i := 0; i < 400; i++ {
		amount := value.NewInt(int64(i % 17))
		if i%3 == 0 {
			// Mixed-kind measure: some rows carry the amount as text.
			amount = value.NewString(fmt.Sprintf("%d", i%17))
		}
		tb.AppendValues(
			value.NewString([]string{"east", "west"}[i%2]),
			value.NewString("p"),
			amount,
			value.NewFloat(float64(i)/7),
			value.NewBool(i%5 == 0),
		)
	}
	flow := diffHeader + `
F:
  D.out: D.src | T.keep | T.agg

T:
  keep:
    type: filter_by
    filter_expression: ratio > 1
  agg:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: min
        apply_on: amount
        out_field: lo
      - operator: count
        out_field: n
`
	diffFlow(t, flow, map[string]*table.Table{"src": tb})
}

// spreadAcc is a user aggregate: the distance between the largest and
// the smallest non-null value, null for none.
type spreadAcc struct {
	lo, hi float64
	n      int
}

func (a *spreadAcc) Add(v value.V) {
	if v.IsNull() {
		return
	}
	x := v.Float()
	if a.n == 0 || x < a.lo {
		a.lo = x
	}
	if a.n == 0 || x > a.hi {
		a.hi = x
	}
	a.n++
}

func (a *spreadAcc) Result() value.V {
	if a.n == 0 {
		return value.VNull
	}
	return value.NewFloat(a.hi - a.lo)
}

// TestEveryAggregateDifferential runs one group-by applying every
// registered aggregate — the platform's and one registered through
// task.RegisterAggregate — to an int, a float, a bool and a string
// column, over 600 rows with nulls: it runs on the columnar path and
// agrees with the row kernels cell for cell, under every mode and input
// backing.
func TestEveryAggregateDifferential(t *testing.T) {
	// A repeated run (-count) finds the aggregate already registered.
	_ = task.RegisterAggregate("spread", func() task.Accumulator { return &spreadAcc{} })
	var aggs strings.Builder
	for _, op := range task.Aggregates() {
		for _, col := range []string{"amount", "ratio", "flag", "product"} {
			fmt.Fprintf(&aggs, "      - operator: %s\n        apply_on: %s\n", op, col)
		}
	}
	flow := diffHeader + "F:\n  D.out: D.src | T.agg\n\nT:\n  agg:\n    type: groupby\n    groupby: [region]\n    aggregates:\n" + aggs.String()
	sources := map[string]*table.Table{"src": salesTable(600, 5, 25)}
	diffFlow(t, flow, sources)
	if res := runPath(t, buildGraph(t, flow), sources, batch.ColumnarOn, 1); countPaths(res, batch.PathColumnar) != 1 {
		t.Errorf("timings %+v: want the group-by on the columnar path", res.Stats.Timings)
	}
}

// --- Randomized pipelines -------------------------------------------------

// dimTable is the build side of the randomised joins: a region listed
// twice (fan-out), regions listed once, one no sales row has, a region
// the sales have that is missing (remote), and a null key.
func dimTable() *table.Table {
	tb := table.New(schema.MustFromNames("region", "zone", "weight"))
	for i, r := range []string{"east", "west", "east", "north", "nowhere", "south"} {
		tb.AppendValues(value.NewString(r), value.NewString(fmt.Sprintf("z%d", i%2)), value.NewFloat(float64(i)/2))
	}
	tb.AppendValues(value.VNull, value.NewString("z9"), value.VNull)
	return tb
}

// randFlow assembles a random 1..4 stage pipeline from the kernel menu
// (plus row-only stages, so the engine keeps crossing between paths). One
// flow in three opens with a join of D.src against D.dim — any condition,
// either input order — projected back onto the source's column names so
// every later stage still binds.
func randFlow(rng *rand.Rand) string {
	filters := []string{
		"amount > 25",
		"ratio < 0 or flag",
		"region == 'east'",
		"product contains 'a1'",
		"amount % 3 == 0 and not flag",
		"amount in (1, 2, 3, 4, 5)",
	}
	maps := []string{
		"amount * 2",
		"amount + ratio",
		"ratio / amount",
		"-amount",
		"region + '!'",
	}
	header, inputs := diffHeader, "D.src"
	var tasks []string
	var chain []string
	if rng.Intn(3) == 0 {
		header = "\nD:\n  src: [region, product, amount, ratio, flag]\n  dim: [region, zone, weight]\n\n"
		inputs = []string{"(D.src, D.dim)", "(D.dim, D.src)"}[rng.Intn(2)]
		chain = append(chain, "T.j")
		tasks = append(tasks, fmt.Sprintf("  j:\n    type: join\n    left: src by region\n    right: dim by region\n    join_condition: %s\n"+
			"    project:\n      src_region: region\n      src_product: product\n      src_amount: amount\n      src_ratio: ratio\n      src_flag: flag\n      dim_zone: zone\n      dim_weight: weight\n",
			[]string{"inner", "left outer", "right outer", "full outer"}[rng.Intn(4)]))
	}
	done := func() string {
		return header + "F:\n  D.out: " + inputs + " | " + strings.Join(chain, " | ") + "\n\nT:\n" + strings.Join(tasks, "")
	}
	stages := rng.Intn(4) + 1
	for i := 0; i < stages; i++ {
		id := fmt.Sprintf("t%d", i)
		chain = append(chain, "T."+id)
		switch rng.Intn(6) {
		case 0:
			tasks = append(tasks, fmt.Sprintf("  %s:\n    type: filter_by\n    filter_expression: %s\n",
				id, filters[rng.Intn(len(filters))]))
		case 1:
			// New output column names never collide with later stages'
			// source columns, so any prefix of the chain stays valid.
			tasks = append(tasks, fmt.Sprintf("  %s:\n    type: map\n    operator: expr\n    expression: %s\n    output: m%d\n",
				id, maps[rng.Intn(len(maps))], i))
		case 2:
			// One to three keys in random order and direction; region,
			// flag and the bucketed amounts tie constantly, so stability
			// is on trial.
			cols := []string{"amount", "ratio", "region", "product", "flag"}
			var keys []string
			for _, c := range rng.Perm(len(cols))[:rng.Intn(3)+1] {
				keys = append(keys, cols[c]+[]string{"", " ASC", " DESC"}[rng.Intn(3)])
			}
			tasks = append(tasks, fmt.Sprintf("  %s:\n    type: sort\n    orderby_column: [%s]\n", id, strings.Join(keys, ", ")))
		case 3:
			// Nothing, one row, some rows, more rows than there are.
			limit := []int{0, 1, rng.Intn(200) + 1, 100000}[rng.Intn(4)]
			tasks = append(tasks, fmt.Sprintf("  %s:\n    type: limit\n    limit: %d\n", id, limit))
		case 4:
			tasks = append(tasks, fmt.Sprintf("  %s:\n    type: topn\n    orderby_column: [%s]\n    limit: %d\n",
				id, []string{"amount DESC", "ratio", "region"}[rng.Intn(3)], rng.Intn(10)+1))
		case 5:
			agg := []string{"sum", "avg", "min", "max"}[rng.Intn(4)]
			on := []string{"amount", "ratio"}[rng.Intn(2)]
			tasks = append(tasks, fmt.Sprintf("  %s:\n    type: groupby\n    groupby: [region]\n    aggregates:\n      - operator: %s\n        apply_on: %s\n        out_field: amount\n      - operator: count\n        out_field: product\n",
				id, agg, on))
			// Aggregates overwrite amount/product so later random stages
			// still see the columns they reference; ratio and flag are
			// gone, so stop the chain here.
			return done()
		}
	}
	return done()
}

// TestRandomPipelinesDifferential generates seeded random pipelines and
// random datasets (varying size and null density) and requires row and
// columnar runs to agree on all of them.
func TestRandomPipelinesDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not short")
	}
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			flow := randFlow(rng)
			rows := []int{0, 1, 1000, 4000}[rng.Intn(4)]
			nullRate := []int{0, 10, 60, 100}[rng.Intn(4)]
			src := salesTable(rows, seed+1000, nullRate)
			t.Logf("flow:\n%s\nrows=%d nullRate=%d", flow, rows, nullRate)
			sources := map[string]*table.Table{"src": src}
			if strings.Contains(flow, "D.dim") {
				sources["dim"] = dimTable()
			}
			diffFlow(t, flow, sources)
		})
	}
}

// TestColumnarPathReported confirms the planner decision is visible in
// stage timings — the observability contract /stats and the CLI rely on.
func TestColumnarPathReported(t *testing.T) {
	g := buildGraph(t, fixedFlows[0].flow)
	src := salesTable(2000, 7, 10)
	sources := map[string]*table.Table{"src": src}

	for _, mode := range []string{batch.ColumnarOn, ""} {
		if n := countPaths(runPath(t, g, sources, mode, 1), batch.PathColumnar); n == 0 {
			t.Errorf("columnar=%q: no stage reported the columnar path", mode)
		}
	}
	res := runPath(t, g, sources, batch.ColumnarOff, 1)
	if n := countPaths(res, batch.PathColumnar); n != 0 {
		t.Errorf("columnar=off: %d stages reported the columnar path", n)
	}
	if countPaths(res, batch.PathRow) == 0 {
		t.Errorf("columnar=off: no stage reported the row path")
	}
	t.Run("join_sort_limit", joinSortLimitPathReported)
}

func countPaths(res *batch.Result, path string) int {
	n := 0
	for _, st := range res.Stats.Timings {
		if st.Path == path {
			n++
		}
	}
	return n
}
