package batch

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"shareinsights/internal/dag"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

const testFlow = `
D:
  raw: [k, txt, v]

F:
  D.filtered: D.raw | T.keep_positive
  D.grouped: D.filtered | T.by_k
  +D.top: D.grouped | T.top2
  D.unused_sink: D.raw | T.by_k

T:
  keep_positive:
    type: filter_by
    filter_expression: v > 0
  by_k:
    type: groupby
    groupby: [k]
    aggregates:
      - operator: sum
        apply_on: v
        out_field: total
  top2:
    type: topn
    groupby: [k]
    orderby_column: [total DESC]
    limit: 2
`

func buildGraph(t testing.TB, src string) *dag.Graph {
	t.Helper()
	f, err := flowfile.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(f, task.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func rawTable(n int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	tb := table.New(schema.MustFromNames("k", "txt", "v"))
	for i := 0; i < n; i++ {
		tb.AppendValues(
			value.NewString(fmt.Sprintf("k%d", rng.Intn(10))),
			value.NewString(fmt.Sprintf("text %d payload", i)),
			value.NewInt(int64(rng.Intn(21)-5)),
		)
	}
	return tb
}

func TestRunMatchesReference(t *testing.T) {
	g := buildGraph(t, testFlow)
	src := rawTable(20000, 1)
	// Reference: single worker, no optimization.
	ref := &Executor{Parallelism: 1}
	refRes, err := ref.RunContext(context.Background(), g, &task.Env{Parallelism: 1}, map[string]*table.Table{"raw": src})
	if err != nil {
		t.Fatal(err)
	}
	// Parallel, optimized.
	par := &Executor{Parallelism: 8, Optimize: true}
	parRes, err := par.RunContext(context.Background(), g, &task.Env{Parallelism: 8}, map[string]*table.Table{"raw": src})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"grouped", "top"} {
		a, _ := refRes.Table(name)
		b, ok := parRes.Table(name)
		if !ok {
			t.Fatalf("parallel run missing %s", name)
		}
		if !a.Equal(b) {
			t.Errorf("%s differs between 1-worker and 8-worker runs:\n%s\nvs\n%s",
				name, a.Format(5), b.Format(5))
		}
	}
	// filtered rows: row-local shard order may differ from sequential
	// order, but the multiset must match; grouped equality above already
	// proves it.
}

func TestDeadSinkElimination(t *testing.T) {
	g := buildGraph(t, testFlow)
	src := rawTable(100, 2)
	opt := &Executor{Optimize: true}
	res, err := opt.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": src})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.SkippedSinks) != 1 || res.Stats.SkippedSinks[0] != "unused_sink" {
		t.Errorf("skipped = %v", res.Stats.SkippedSinks)
	}
	if _, ok := res.Table("unused_sink"); ok {
		t.Error("dead sink was materialized")
	}
	// Without optimization it is computed.
	raw := &Executor{}
	res2, err := raw.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": src})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res2.Table("unused_sink"); !ok {
		t.Error("unoptimized run should materialize every sink")
	}
}

// hoistFlow has something for every plan rule the executor can derive on
// its own: a filter to hoist ahead of a fan-out map, and a dead sink.
const hoistFlow = `
D:
  raw: [k, txt, v]

F:
  +D.words: D.raw | T.split | T.keep_positive
  D.unused_sink: D.raw | T.keep_positive

T:
  split:
    type: map
    operator: extract_words
    transform: txt
    output: word
  keep_positive:
    type: filter_by
    filter_expression: v > 0
`

// TestExecutorRunsAPlan pins the collapse to one answer for "what do I
// run": a nil Plan makes the executor derive one — dag.Optimize with no
// statistics under Optimize, the as-written plan otherwise — and the
// derived plan runs exactly as the caller-supplied equivalent would.
func TestExecutorRunsAPlan(t *testing.T) {
	g := buildGraph(t, hoistFlow)
	sources := map[string]*table.Table{"raw": rawTable(300, 9)}
	stageOrder := func(res *Result) map[string][]string {
		order := map[string][]string{}
		for _, st := range res.Stats.Timings {
			order[st.Output] = append(order[st.Output], st.Stage)
		}
		return order
	}
	hoisted := "filter_by v > 0 | map extract_words"
	written := "map extract_words | filter_by v > 0"
	cases := []struct {
		name      string
		e         *Executor
		skipped   []string
		wordStage string
		planTag   string
	}{
		{"derived optimized", &Executor{Parallelism: 1, Optimize: true}, []string{"unused_sink"}, hoisted, ""},
		{"supplied optimized", &Executor{Parallelism: 1, Plan: dag.Optimize(g, dag.PlanOptions{})}, []string{"unused_sink"}, hoisted, "filter_pushdown"},
		{"derived as written", &Executor{Parallelism: 1}, nil, written, ""},
		{"supplied as written", &Executor{Parallelism: 1, Optimize: true, Plan: dag.AsWritten(g, "")}, nil, written, "as-written"},
	}
	var ref *table.Table
	for _, tc := range cases {
		res, err := tc.e.RunContext(context.Background(), g, &task.Env{Parallelism: 1}, sources)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(res.Stats.SkippedSinks, tc.skipped) {
			t.Errorf("%s: skipped sinks = %v, want %v", tc.name, res.Stats.SkippedSinks, tc.skipped)
		}
		if got := stageOrder(res)["words"]; !reflect.DeepEqual(got, []string{tc.wordStage}) {
			t.Errorf("%s: D.words stages = %q, want %q", tc.name, got, tc.wordStage)
		}
		for _, st := range res.Stats.Timings {
			if st.Plan != tc.planTag {
				t.Errorf("%s: stage %q carries plan tag %q, want %q", tc.name, st.Stage, st.Plan, tc.planTag)
			}
		}
		words, _ := res.Table("words")
		if ref == nil {
			ref = words
		} else if !ref.Equal(words) {
			t.Errorf("%s: D.words cells differ from the first configuration's", tc.name)
		}
	}
}

// TestCachedNodesSkipTheirPipelines covers the Cached field: a produced
// node found there is served as is and runs no stage; a source is never
// taken from it.
func TestCachedNodesSkipTheirPipelines(t *testing.T) {
	g := buildGraph(t, testFlow)
	src := rawTable(100, 2)
	canned := table.New(schema.MustFromNames("k", "total"))
	canned.AppendValues(value.NewString("only"), value.NewInt(7))
	e := &Executor{Optimize: true, Cached: map[string]*table.Table{"grouped": canned, "raw": canned}}
	res, err := e.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": src})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Stats.CacheHits, []string{"grouped"}) {
		t.Errorf("cache hits = %v, want [grouped]", res.Stats.CacheHits)
	}
	if got, _ := res.Table("grouped"); got != canned {
		t.Error("cached node was recomputed")
	}
	if got, _ := res.Table("raw"); got != src {
		t.Error("a source was served from the node cache")
	}
	top, _ := res.Table("top")
	if top.Len() != 1 || top.Cell(0, "k").Str() != "only" {
		t.Errorf("downstream of the cached node:\n%s", top.Format(0))
	}
	for _, st := range res.Stats.Timings {
		if st.Output == "grouped" {
			t.Errorf("cached node ran stage %q", st.Stage)
		}
	}
}

func TestMissingSource(t *testing.T) {
	g := buildGraph(t, testFlow)
	e := &Executor{}
	_, err := e.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{})
	if err == nil || !strings.Contains(err.Error(), "D.raw") {
		t.Errorf("missing source error = %v", err)
	}
}

func TestSourceSchemaMismatch(t *testing.T) {
	g := buildGraph(t, testFlow)
	bad := table.New(schema.MustFromNames("wrong"))
	e := &Executor{}
	_, err := e.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": bad})
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch error = %v", err)
	}
}

func TestBindErrorCaughtAtBuildTime(t *testing.T) {
	// A task referencing a missing column fails when the DAG resolves
	// schemas — before any data is read.
	src := `
D:
  raw: [a]

F:
  +D.out: D.raw | T.bad

T:
  bad:
    type: filter_by
    filter_expression: nonexistent > 1
`
	f, err := flowfile.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = dag.Build(f, task.NewRegistry(), nil)
	if err == nil || !strings.Contains(err.Error(), "nonexistent") {
		t.Errorf("build error = %v", err)
	}
}

func TestRuntimeErrorPropagates(t *testing.T) {
	// A missing dictionary resource only surfaces at run time; the
	// executor must attribute it to the producing flow.
	src := `
D:
  raw: [body]

F:
  +D.out: D.raw | T.ex

T:
  ex:
    type: map
    operator: extract
    transform: body
    dict: missing.txt
    output: tag
`
	g := buildGraph(t, src)
	e := &Executor{}
	tb := table.New(schema.MustFromNames("body"))
	tb.AppendValues(value.NewString("x"))
	_, err := e.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": tb})
	if err == nil || !strings.Contains(err.Error(), "missing.txt") || !strings.Contains(err.Error(), "D.out") {
		t.Errorf("runtime error = %v", err)
	}
}

func TestFanInJoinThroughEngine(t *testing.T) {
	src := `
D:
  l: [k, x]
  r: [k, y]

F:
  +D.joined: (D.l, D.r) | T.j

T:
  j:
    type: join
    left: l by k
    right: r by k
    join_condition: inner
`
	g := buildGraph(t, src)
	lt := table.New(schema.MustFromNames("k", "x"))
	lt.AppendValues(value.NewInt(1), value.NewString("a"))
	rt := table.New(schema.MustFromNames("k", "y"))
	rt.AppendValues(value.NewInt(1), value.NewString("b"))
	e := &Executor{}
	res, err := e.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"l": lt, "r": rt})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := res.Table("joined")
	if j.Len() != 1 || j.Cell(0, "l_x").Str() != "a" || j.Cell(0, "r_y").Str() != "b" {
		t.Errorf("join result:\n%s", j.Format(0))
	}
}

func TestRowLocalFusionPreservesFanOut(t *testing.T) {
	// A fused chain of a fan-out map plus a filter must produce the same
	// multiset as running the specs one at a time.
	src := `
D:
  docs: [body]

F:
  +D.words: D.docs | T.split | T.long

T:
  split:
    type: map
    operator: extract_words
    transform: body
    output: word
  long:
    type: filter_by
    filter_expression: word contains 'a'
`
	g := buildGraph(t, src)
	docs := table.New(schema.MustFromNames("body"))
	for i := 0; i < 3000; i++ {
		docs.AppendValues(value.NewString(fmt.Sprintf("alpha beta gamma delta doc%d", i)))
	}
	seq := &Executor{Parallelism: 1}
	par := &Executor{Parallelism: 6}
	a, err := seq.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"docs": docs})
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"docs": docs})
	if err != nil {
		t.Fatal(err)
	}
	at, _ := a.Table("words")
	bt, _ := b.Table("words")
	if at.Len() != bt.Len() {
		t.Fatalf("fan-out cardinality differs: %d vs %d", at.Len(), bt.Len())
	}
	counts := map[string]int{}
	for _, r := range at.Rows() {
		counts[r[1].Str()]++
	}
	for _, r := range bt.Rows() {
		counts[r[1].Str()]--
	}
	for w, c := range counts {
		if c != 0 {
			t.Errorf("word %q multiset imbalance %d", w, c)
		}
	}
}

func TestStatsReported(t *testing.T) {
	g := buildGraph(t, testFlow)
	e := &Executor{Optimize: true}
	res, err := e.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": rawTable(100, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TasksRun != 3 { // keep_positive, by_k, top2 (dead sink skipped)
		t.Errorf("tasks run = %d, want 3", res.Stats.TasksRun)
	}
	if res.Stats.RowsProduced["grouped"] == 0 {
		t.Error("rows produced not recorded")
	}
	names := res.SortedNames()
	if len(names) == 0 || !strings.Contains(strings.Join(names, ","), "grouped") {
		t.Errorf("sorted names = %v", names)
	}
}

func TestStageTimingsRecorded(t *testing.T) {
	g := buildGraph(t, testFlow)
	e := &Executor{Optimize: true}
	res, err := e.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": rawTable(5000, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Timings) == 0 {
		t.Fatal("no stage timings recorded")
	}
	outputs := map[string]bool{}
	for _, st := range res.Stats.Timings {
		if st.Output == "" || st.Stage == "" {
			t.Errorf("incomplete timing: %+v", st)
		}
		outputs[st.Output] = true
	}
	for _, want := range []string{"filtered", "grouped", "top"} {
		if !outputs[want] {
			t.Errorf("no timing for D.%s", want)
		}
	}
	slow := res.Stats.Slowest(2)
	if len(slow) != 2 || slow[0].Duration < slow[1].Duration {
		t.Errorf("Slowest not ordered: %+v", slow)
	}
}

// TestStageTimingRowsInAndQueueWait checks the extended StageTiming
// fields: every stage reports its input cardinality, and the first
// stage of each node carries the scheduler queue-wait.
func TestStageTimingRowsInAndQueueWait(t *testing.T) {
	g := buildGraph(t, testFlow)
	e := &Executor{Optimize: true}
	res, err := e.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": rawTable(5000, 4)})
	if err != nil {
		t.Fatal(err)
	}
	firstByOutput := map[string]StageTiming{}
	for _, st := range res.Stats.Timings {
		if st.RowsIn < 0 {
			t.Errorf("negative RowsIn: %+v", st)
		}
		if st.QueueWait < 0 {
			t.Errorf("negative QueueWait: %+v", st)
		}
		if _, ok := firstByOutput[st.Output]; !ok {
			firstByOutput[st.Output] = st
		}
	}
	// The filtered node's first stage consumes the full raw source.
	if st, ok := firstByOutput["filtered"]; !ok || st.RowsIn != 5000 {
		t.Errorf("filtered first-stage RowsIn = %+v, want 5000", st)
	}
	// grouped consumes filtered's output, which drops non-positive v.
	if st, ok := firstByOutput["grouped"]; !ok || st.RowsIn == 0 || st.RowsIn >= 5000 {
		t.Errorf("grouped first-stage RowsIn = %+v, want in (0, 5000)", st)
	}
}

// TestTraceMatchesStats is the consistency check of the acceptance
// criteria: the trace's per-stage duration_us attributes must agree
// exactly with Stats.Timings (both are set from one measurement).
func TestTraceMatchesStats(t *testing.T) {
	g := buildGraph(t, testFlow)
	tr := obs.NewTrace("t")
	e := &Executor{Optimize: true, Tracer: tr}
	res, err := e.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": rawTable(2000, 5)})
	if err != nil {
		t.Fatal(err)
	}
	var spanSum, spanCount int64
	for _, s := range tr.Spans() {
		if !strings.HasPrefix(s.Name, "stage ") {
			continue
		}
		spanCount++
		us, ok := s.Int("duration_us")
		if !ok {
			t.Fatalf("stage span %q has no duration_us", s.Name)
		}
		spanSum += us
	}
	if spanCount != int64(len(res.Stats.Timings)) {
		t.Errorf("stage spans = %d, stats timings = %d", spanCount, len(res.Stats.Timings))
	}
	var statSum int64
	for _, st := range res.Stats.Timings {
		statSum += st.Duration.Microseconds()
	}
	if spanSum != statSum {
		t.Errorf("trace stage durations sum to %dus, Stats.Timings to %dus", spanSum, statSum)
	}
	// The dead sink shows up in the trace as an explicitly skipped node.
	var sawSkipped bool
	for _, s := range tr.Spans() {
		if s.Name == "node D.unused_sink" && s.HasFlag("skipped") {
			sawSkipped = true
		}
	}
	if !sawSkipped {
		t.Error("optimizer-skipped sink missing from trace")
	}
}

// TestNilTracerHooksAllocationFree pins the acceptance criterion that
// the disabled path costs nothing: with a nil Tracer, a nil Budget and
// no timing sink, the stage runner — span hooks included — adds no
// allocations to the stage's own.
func TestNilTracerHooksAllocationFree(t *testing.T) {
	p := &pipeline{e: &Executor{}}
	out := rawTable(5, 1)
	body := func() (*table.Table, []SubStage, error) { return out, nil, nil }
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := p.runStage("noop", PathRow, 5, body); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("runStage with nil tracer and budget allocates %v per stage", allocs)
	}
}

// benchRun is the before/after benchmark for tracing overhead:
//
//	go test -bench=BenchmarkRun ./internal/engine/batch/
//
// compare allocs/op of NoTracer vs Traced.
func benchRun(b *testing.B, traced bool) {
	g := buildGraph(b, testFlow)
	src := rawTable(2000, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &Executor{Optimize: true}
		if traced {
			e.Tracer = obs.NewTrace("bench")
		}
		if _, err := e.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": src}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunNoTracer(b *testing.B) { benchRun(b, false) }
func BenchmarkRunTraced(b *testing.B)   { benchRun(b, true) }

// countingBudget implements Budget for the hook tests.
type countingBudget struct {
	maxRows int64
	rows    atomic.Int64
	bytes   atomic.Int64
}

func (b *countingBudget) Charge(rows, bytes int) error {
	r := b.rows.Add(int64(rows))
	b.bytes.Add(int64(bytes))
	if b.maxRows > 0 && r > b.maxRows {
		return fmt.Errorf("over budget: %d rows", r)
	}
	return nil
}

func TestBudgetHookCharges(t *testing.T) {
	g := buildGraph(t, testFlow)
	src := rawTable(500, 3)
	b := &countingBudget{}
	e := &Executor{Budget: b}
	if _, err := e.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": src}); err != nil {
		t.Fatal(err)
	}
	if b.rows.Load() == 0 {
		t.Error("budget saw no row charges")
	}
	if b.bytes.Load() == 0 {
		t.Error("budget saw no byte charges")
	}
}

func TestBudgetExceededFailsRun(t *testing.T) {
	g := buildGraph(t, testFlow)
	src := rawTable(500, 3)
	e := &Executor{Budget: &countingBudget{maxRows: 10}}
	res, err := e.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": src})
	if err == nil || !strings.Contains(err.Error(), "over budget") {
		t.Fatalf("err = %v, want budget failure", err)
	}
	if len(res.Stats.Failures) == 0 {
		t.Error("budget failure missing from Stats.Failures")
	}
}

// TestBudgetChargedOnPipelineEntry: a chain run through RunPipeline (a
// widget's endpoint prefix) charges the run budget stage by stage like a
// graph node, and fails with the budget's error once it is exhausted.
func TestBudgetChargedOnPipelineEntry(t *testing.T) {
	g := buildGraph(t, hoistFlow)
	specs := g.Nodes["words"].Specs
	in := []*table.Table{rawTable(50, 3)}
	b := &countingBudget{}
	e := &Executor{Parallelism: 1, Budget: b}
	out, stages, err := e.RunPipeline(context.Background(), &task.Env{}, specs, in, []string{"raw"}, 0)
	if err != nil || stages != 2 {
		t.Fatalf("stages = %d, err = %v", stages, err)
	}
	if b.rows.Load() != int64(out.Len()) || b.bytes.Load() != int64(out.SizeBytes()) {
		t.Errorf("charged %d rows / %d bytes for an output of %d rows / %d bytes",
			b.rows.Load(), b.bytes.Load(), out.Len(), out.SizeBytes())
	}
	e.Budget = &countingBudget{maxRows: 10}
	if _, _, err := e.RunPipeline(context.Background(), &task.Env{}, specs, in, []string{"raw"}, 0); err == nil || !strings.Contains(err.Error(), "over budget") {
		t.Fatalf("err = %v, want budget failure", err)
	}
}

func TestMaxRowsCap(t *testing.T) {
	src := `
D:
  raw: [k, txt, v]
D.filtered:
  max_rows: 5

F:
  +D.filtered: D.raw | T.keep_positive

T:
  keep_positive:
    type: filter_by
    filter_expression: v > 0
`
	g := buildGraph(t, src)
	data := rawTable(500, 4)
	e := &Executor{}
	_, err := e.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": data})
	if err == nil || !strings.Contains(err.Error(), "max_rows") {
		t.Fatalf("err = %v, want max_rows cap failure", err)
	}
}
