// Package enginetest holds the batch engine to the semantics: every flow
// runs in every executor mode — each stage alone through its Spec.Exec
// (off), and in fan groups and inline nodes (the default), planned and
// unplanned — over row-backed and over column-backed inputs, and every
// produced table must equal the naive reference's (reference_test.go,
// docs/SEMANTICS.md) cell for cell and kind for kind.
package enginetest

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

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
	res, err := e.RunContext(context.Background(), g, textEnv, sources)
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

// diffFlow runs one flow in every mode, over both input backings, and
// compares every output data object with the reference's.
func diffFlow(t *testing.T, flow string, sources map[string]*table.Table) {
	t.Helper()
	g := buildGraph(t, flow)
	ref := reference(t, g, sources)
	diffInputs(t, g, ref, "row-backed", sources)
	diffInputs(t, g, ref, "column-backed", columnBacked(sources))
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
// reference run ref. At parallelism 1 the comparison is exact (same
// rows, same order, same kinds); at parallelism 4 row-local shard order
// may differ from sequential order, so the comparison is
// order-insensitive.
func diffInputs(t *testing.T, g *dag.Graph, ref refResult, inputs string, sources map[string]*table.Table) {
	t.Helper()
	for _, mode := range []string{batch.ColumnarOff, ""} {
		col := runPath(t, g, sources, mode, 1)
		for _, name := range ref.names() {
			want := ref[name]
			got, ok := col.Table(name)
			if !ok {
				t.Fatalf("%s inputs, columnar=%s run missing output %s", inputs, mode, name)
			}
			if !want.Equal(got) {
				t.Errorf("%s inputs, columnar=%s: D.%s differs from the reference:\nreference:\n%s\ncolumnar:\n%s",
					inputs, mode, name, want.Format(10), got.Format(10))
			}
			assertKindsEqual(t, name, want, got)
		}
	}
	par := runPath(t, g, sources, "", 4)
	for _, name := range ref.names() {
		got, _ := par.Table(name)
		if got == nil || !sameMultiset(ref[name], got) {
			t.Errorf("%s inputs, columnar parallel run: D.%s row multiset differs from the reference", inputs, name)
		}
	}

	// Optimized-vs-unoptimized: the same flow under a cost-based plan —
	// once with heuristic-only evidence, once with an adversarial stats
	// feed claiming extreme selectivities to force reorders — must match
	// the reference cell-for-cell in both modes.
	for si, stats := range []dag.StatsFn{nil, adversarialStats(1), adversarialStats(2)} {
		for _, mode := range []string{batch.ColumnarOff, ""} {
			plan := dag.Optimize(g, dag.PlanOptions{Stats: stats})
			// The differential flows don't mark endpoints, so every
			// output is formally a dead sink; keep them all live — the
			// point here is the stage rewrites, not sink elimination.
			plan.SkippedSinks = nil
			opt := runPlanned(t, g, plan, sources, mode)
			for _, name := range ref.names() {
				want := ref[name]
				got, ok := opt.Table(name)
				if !ok {
					t.Fatalf("%s inputs, stats=%d columnar=%s planned run missing output %s", inputs, si, mode, name)
				}
				if !want.Equal(got) {
					t.Errorf("%s inputs, stats=%d columnar=%s: planned D.%s differs from the reference:\nplan:\n%s\nreference:\n%s\nplanned:\n%s",
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
	res, err := e.RunContext(context.Background(), g, textEnv, sources)
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
			if g := got.At(i, j); g.Kind() != v.Kind() {
				t.Errorf("D.%s row %d col %d: kind %v (reference) vs %v (run)",
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

// TestParallelDifferential: a parallel (Figure 20) resolves into its
// sub-tasks in place, a nested one's included, and every mode holds the
// expanded chain to the reference: the subs compose their columns in
// turn, a fan-out sub repeats the date its predecessor added, and a
// filter reads the column a nested map added.
func TestParallelDifferential(t *testing.T) {
	flow := `
D:
  raw: [postedTime, body, amount]

F:
  D.tagged: D.raw | T.tag
  D.kept: D.raw | T.outer

T:
  tag:
    parallel: [T.norm_date, T.words]
  norm_date:
    type: map
    operator: date
    transform: postedTime
    input_format: 'E MMM dd HH:mm:ss Z yyyy'
    output_format: yyyy-MM-dd
    output: date
  words:
    type: map
    operator: extract_words
    transform: body
    output: word
  outer:
    parallel: [T.inner, T.big]
  inner:
    parallel: [T.double]
  double:
    type: map
    operator: expr
    expression: amount * 2
    output: doubled
  big:
    type: filter_by
    filter_expression: doubled > 15
`
	raw := table.New(schema.MustFromNames("postedTime", "body", "amount"))
	raw.AppendValues(value.NewString("Fri May 10 18:30:00 +0000 2013"), value.NewString("kohli with dhoni"), value.NewInt(10))
	raw.AppendValues(value.NewString("Sat May 11 09:00:00 +0000 2013"), value.NewString("rain"), value.NewInt(7))
	raw.AppendValues(value.NewString("Sun May 12 20:15:00 +0000 2013"), value.NewString(""), value.NewInt(8))
	sources := map[string]*table.Table{"raw": raw}
	g := buildGraph(t, flow)
	for name, want := range map[string][]string{"tagged": {"norm_date", "words"}, "kept": {"double", "big"}} {
		var got []string
		for _, st := range g.Nodes[name].Stages {
			got = append(got, st.Name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("D.%s resolves to the stages %v, want %v", name, got, want)
		}
	}
	diffFlow(t, flow, sources)
	ref := reference(t, g, sources)
	tagged := ref["tagged"]
	if got := tagged.Schema().String(); got != "[postedTime, body, amount, date, word]" {
		t.Errorf("D.tagged schema = %s", got)
	}
	if tagged.Len() != 3 || tagged.Cell(1, "word").Str() != "dhoni" || tagged.Cell(1, "date").Str() != "2013-05-10" {
		t.Errorf("D.tagged: want kohli and dhoni on 2013-05-10, then rain:\n%s", tagged.Format(0))
	}
	if kept := ref["kept"]; kept.Len() != 2 || kept.Cell(0, "doubled").Int() != 20 || kept.Cell(1, "doubled").Int() != 16 {
		t.Errorf("D.kept = %s, want the rows of 10 and 8, doubled", kept.Format(0))
	}
}

// TestExpressionsMatchReference holds every mode's filter and expr map to
// the reference's interpreter (SEMANTICS.md §4–5) on each rule of the
// language — truthiness, order across kinds, coercion, zero divisors,
// membership, containment and nulls — over sources whose columns mix
// kinds, NaN, times and nulls (fuzzSources), from empty to two morsels.
func TestExpressionsMatchReference(t *testing.T) {
	srcs := []string{
		"flag", "not region", "amount", "ratio and amount", "product or flag",
		"amount > 25", "region < amount", "ratio == ratio", "amount != null", "flag >= 0.5",
		"amount + ratio", "amount * 2 - 1", "ratio / amount", "amount / 0", "amount % 3", "ratio % 0",
		"-amount", "-ratio", "region + '!'", "region + amount", "1 + 2.5",
		"amount in (1, 2, 3)", "region in ('east', amount)", "region in 'east'", "product contains 'a1'",
	}
	for _, src := range srcs {
		flow := diffHeader + fmt.Sprintf(`F:
  D.kept: D.src | T.keep
  D.mapped: D.src | T.value

T:
  keep:
    type: filter_by
    filter_expression: %s
  value:
    type: map
    operator: expr
    expression: %s
    output: amount
`, src, src)
		for seed, rows := range []int{0, 7, 300, 2100} {
			diffFlow(t, flow, fuzzSources(rand.New(rand.NewSource(int64(seed))), rows))
		}
	}
}

// TestIneligibleColumnsDifferential feeds a filter and a group-by a
// mixed-kind measure column, which the kernels read boxed, and holds
// every mode to the reference.
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

// boxedSales is salesTable with a column of each boxed shape: flag holds
// times, null in every eleventh row, and product mixes ints (every third
// row) into its strings.
func boxedSales(n int, seed int64) *table.Table {
	src := salesTable(n, seed, 10)
	tb := table.New(src.Schema())
	for i, r := range src.Rows() {
		r = r.Clone()
		if r[4] = value.NewTime(time.Unix(int64(i%13)*3600, 0).UTC()); i%11 == 0 {
			r[4] = value.VNull
		}
		if i%3 == 0 {
			r[1] = value.NewInt(int64(i % 7))
		}
		tb.Append(r)
	}
	return tb
}

// TestBoxedInputsDifferential runs the differential suite's shapes over
// inputs with a time column and a mixed-kind column, which every kernel
// reads boxed: every fixed flow (filter, map, group-by, top-n, sort, a
// join), group-bys, a sort and a join keyed on the boxed columns, a union
// of boxed and typed inputs, an
// inline node feeding group-bys keyed on the time column, and one
// feeding a join's probe side. Each runs row-backed and column-backed,
// every mode against the reference.
func TestBoxedInputsDifferential(t *testing.T) {
	sources := map[string]*table.Table{"src": boxedSales(1500, 9)}
	for _, tc := range fixedFlows {
		t.Run(tc.name, func(t *testing.T) { diffFlow(t, tc.flow, sources) })
	}
	t.Run("boxed_keys", func(t *testing.T) {
		// One build key per shape the probe side holds, and "3", which
		// must not join the int 3.
		dim := table.New(schema.MustFromNames("product", "zone"))
		for i, k := range []value.V{value.NewString("product a1"), value.NewInt(3), value.NewInt(4), value.NewString("3"), value.VNull} {
			dim.AppendValues(k, value.NewInt(int64(i)))
		}
		diffFlow(t, `
D:
  src: [region, product, amount, ratio, flag]
  dim: [product, zone]

F:
  D.by_time: D.src | T.by_flag
  D.by_mixed: D.src | T.by_product
  D.sorted: D.src | T.order
  D.joined: (D.src, D.dim) | T.j | T.top

T:
  by_flag:
    type: groupby
    groupby: [flag]
    aggregates:
      - operator: count
        out_field: n
      - operator: min
        apply_on: flag
        out_field: first
      - operator: max
        apply_on: product
        out_field: top
  by_product:
    type: groupby
    groupby: [product, region]
    orderby_aggregates: true
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  order:
    type: sort
    orderby_column: [flag DESC, product, amount]
  j:
    type: join
    left: src by product
    right: dim by product
    join_condition: full outer
  top:
    type: topn
    orderby_column: [src_flag, dim_zone DESC]
    limit: 50
`, map[string]*table.Table{"src": sources["src"], "dim": dim})
	})
	t.Run("union", func(t *testing.T) {
		// D.src's flag holds times and its product mixes ints into the
		// strings, D.plain's are bools and strings: the union's columns
		// change kind from one input to the next, row- and column-backed,
		// and with one input of each.
		plain := salesTable(300, 4, 10)
		flow := `
D:
  src: [region, product, amount, ratio, flag]
  plain: [region, product, amount, ratio, flag]

F:
  D.all: (D.src, D.plain) | T.u
  D.firsts: (D.plain, D.src) | T.u | T.once | T.best

T:
  u:
    type: union
  once:
    type: distinct
    columns: [product, flag]
  best:
    type: topn
    groupby: [region]
    orderby_column: [amount DESC]
    limit: 3
`
		in := map[string]*table.Table{"src": sources["src"], "plain": plain}
		diffFlow(t, flow, in)
		g := buildGraph(t, flow)
		diffInputs(t, g, reference(t, g, in), "mixed", map[string]*table.Table{"src": sources["src"], "plain": columnBacked(in)["plain"]})
	})
	t.Run("inline", func(t *testing.T) {
		for _, in := range []map[string]*table.Table{sources, columnBacked(sources)} {
			if _, built := fanRuns(t, fanFlow([]string{"keep_some", "rev"}, 4), in).Tables["mid"]; built {
				t.Error("D.mid was built")
			}
		}
	})
	t.Run("probe", func(t *testing.T) {
		in := joinInputs(shapeDuplicates, 5, 1500)
		for name, col := range map[string]int{"l": 5, "r": 4} { // km, kx
			tb := table.New(in[name].Schema())
			for i, r := range in[name].Rows() {
				r = r.Clone()
				if name == "l" {
					r[col] = value.NewTime(time.Unix(int64(i%17)*60, 0).UTC())
				} else if i%2 == 0 {
					r[col] = value.NewString("x")
				}
				tb.Append(r)
			}
			in[name] = tb
		}
		for _, cond := range []string{"inner", "left outer"} {
			diffFlow(t, probeInlineFlow(cond, "a_w > 40"), in)
		}
	})
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
// agrees with the reference cell for cell, under every mode and input
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
	if res := runPath(t, buildGraph(t, flow), sources, "", 1); countPaths(res, batch.PathColumnar) != 1 {
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
// (plus row-only stages, so the engine keeps crossing between paths),
// the map operators of both kinds among them. One
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
		switch rng.Intn(11) {
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
		case 6:
			// The source columns, shuffled: later stages read only them,
			// and every map output goes.
			cols := []string{"region", "product", "amount", "ratio", "flag"}
			rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
			tasks = append(tasks, fmt.Sprintf("  %s:\n    type: project\n    columns: [%s]\n", id, strings.Join(cols, ", ")))
		case 7:
			// Over every column, or over one or two keys that repeat.
			cols := []string{"", "region", "flag, region", "product, flag"}[rng.Intn(4)]
			if cols != "" {
				cols = "    columns: [" + cols + "]\n"
			}
			tasks = append(tasks, fmt.Sprintf("  %s:\n    type: distinct\n%s", id, cols))
		case 8:
			tasks = append(tasks, fmt.Sprintf("  %s:\n    type: topn\n    groupby: [%s]\n    orderby_column: [%s]\n    limit: %d\n",
				id, []string{"region", "flag", "region, amount"}[rng.Intn(3)], []string{"amount DESC", "ratio", "product DESC, ratio"}[rng.Intn(3)], rng.Intn(4)+1))
		case 9:
			// A map operator that keeps every row: in place, or into a new
			// column.
			tasks = append(tasks, fmt.Sprintf("  %s:\n    type: map\n%s", id, []string{
				"    operator: upper\n    transform: region\n",
				"    operator: replace\n    transform: product\n    old: 'product '\n    new: p-\n",
				"    operator: date\n    transform: flag\n    output_format: yyyy-MM-dd HH\n    output: m" + id[1:] + "\n",
				"    operator: bucket\n    transform: amount\n    width: 10\n",
				"    operator: bucket\n    transform: ratio\n    width: 0.5\n    output: m" + id[1:] + "\n",
				"    operator: concat\n    transform: [region, amount, flag]\n    separator: '|'\n    output: m" + id[1:] + "\n",
				"    operator: constant\n    value: 2.5\n    output: m" + id[1:] + "\n",
			}[rng.Intn(7)]))
		case 10:
			// A map operator that drops rows or repeats them.
			tasks = append(tasks, fmt.Sprintf("  %s:\n    type: map\n%s    output: m%d\n", id, []string{
				"    operator: extract\n    transform: product\n    dict: terms.txt\n",
				"    operator: extract_location\n    transform: region\n    country: IND\n",
				"    operator: extract_words\n    transform: product\n",
			}[rng.Intn(3)], i))
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

	if n := countPaths(runPath(t, g, sources, "", 1), batch.PathColumnar); n == 0 {
		t.Error("default mode: no stage reported the columnar path")
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
