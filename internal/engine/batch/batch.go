// Package batch is ShareInsights' data-processing engine — the stand-in
// for the Hadoop/Pig/Spark back-end the paper compiles flows to.
//
// The engine executes a schema-resolved DAG with the same structure a
// cluster engine would use, shrunk to one process:
//
//   - independent DAG nodes run concurrently (inter-node parallelism);
//   - chains of row-local tasks (map, filter, parallel composites) are
//     fused into one pass and sharded across workers (intra-node
//     parallelism, the map side);
//   - group-bys aggregate partially per shard and merge (the combiner/
//     reduce side);
//   - everything else falls back to the task's reference Exec.
//
// The observable semantics are exactly the task package's reference
// semantics; tests assert the equivalence.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"shareinsights/internal/dag"
	"shareinsights/internal/obs"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
)

// Executor runs flow-file DAGs.
type Executor struct {
	// Parallelism caps worker fan-out; <= 0 means GOMAXPROCS.
	Parallelism int
	// Plan is what RunContext executes: each node's spec order, columnar
	// mode and the skipped sinks are read from it, and nothing runs that
	// it does not describe. nil makes the executor derive one — see
	// Optimize.
	Plan *dag.Plan
	// Optimize selects the plan derived when Plan is nil: dag.Optimize
	// with no statistics (filter hoisting, dead sink elimination), or,
	// off, dag.AsWritten — the pipelines exactly as declared, the E6
	// ablation baseline.
	Optimize bool
	// Tracer receives execution spans (one per DAG node, one per
	// pipeline stage). nil disables tracing; every span call is guarded
	// by a nil check so the disabled path adds zero allocations.
	Tracer obs.Tracer
	// TraceParent is the span id node spans open under (0 = top level).
	TraceParent int
	// Columnar is the default planner mode for the vectorized execution
	// path: ColumnarAuto, ColumnarOn or ColumnarOff ("" means auto). A
	// derived plan and RunPipeline resolve it through
	// dag.ResolveColumnar; a caller's Plan already carries each node's
	// resolved mode.
	Columnar string
	// Budget, when non-nil, is charged as stages and pipelines
	// materialize output (rows per stage, bytes per node or RunPipeline
	// result). Once a charge returns an error the charged pipeline fails
	// with it and runs no further stage, bounding a runaway flow's
	// memory. nil means unlimited.
	Budget Budget
	// Cached is RunContext's incremental-execution cache: produced nodes
	// present in it are served directly, skipping their pipelines.
	// Callers must only supply entries whose content signature is
	// unchanged — see dag.Graph.Signatures.
	Cached map[string]*table.Table
}

// Budget is the per-run accounting hook the serving layer plugs into
// the engine. Implementations must be safe for concurrent use: DAG
// nodes charge from parallel goroutines. The engine treats the
// interface structurally — it has no knowledge of who enforces it.
type Budget interface {
	// Charge accounts rows and bytes of materialized output, returning
	// a non-nil error once the run's budget is exhausted.
	Charge(rows, bytes int) error
}

// StageTiming records one executed pipeline stage — the raw material
// for the §6 "tools to identify performance bottlenecks".
type StageTiming struct {
	// Output is the data object the stage's pipeline produces.
	Output string
	// Stage describes the task(s) executed (fused row-local runs join
	// their descriptions with " | ").
	Stage string
	// RowsIn is the stage's input cardinality (summed over inputs).
	RowsIn int
	// Rows is the stage's output cardinality.
	Rows int
	// Duration is the stage's wall time.
	Duration time.Duration
	// QueueWait is the time the stage's node spent between input
	// readiness and execution start, waiting for a scheduler slot. It
	// is set on the first stage of each node's pipeline.
	QueueWait time.Duration
	// Path records which execution path ran the stage: PathRow or
	// PathColumnar.
	Path string
	// Plan tags the stage with the plan summary of its node (the
	// applied rewrite rules, or "as-written"); "" when the executor ran
	// without a cost-based plan.
	Plan string
	// Sub breaks a fused row-local run into its constituent tasks with
	// per-task row counts — the per-filter selectivity feed for the
	// cost-based optimizer. Empty for unfused stages.
	Sub []SubStage
}

// SubStage is one task of a fused row-local run: its description and
// observed row counts. Durations are not attributed below the fused
// stage (the fusion exists precisely so the tasks share one pass).
type SubStage struct {
	// Stage is the task description.
	Stage string
	// RowsIn and Rows are the task's input and output cardinalities
	// within the fused pass.
	RowsIn int
	Rows   int
}

// StageTiming.Path values.
const (
	// PathRow marks a stage executed by the row-at-a-time kernels.
	PathRow = "row"
	// PathColumnar marks a stage executed by the vectorized colstore
	// kernels.
	PathColumnar = "columnar"
)

// Stats reports what an execution did.
type Stats struct {
	// TasksRun counts executed task stages.
	TasksRun int
	// RowsProduced maps data-object names to their materialized row
	// counts.
	RowsProduced map[string]int
	// SkippedSinks lists dead sinks the optimizer eliminated.
	SkippedSinks []string
	// CacheHits lists produced nodes served from the incremental cache.
	CacheHits []string
	// ColumnarFallbacks counts stages that started on the vectorized
	// path and fell back to the row kernels at run time (the kernel met
	// data it has no typed path for; see docs/ENGINE.md). Planner
	// declines are not counted — only run-time fallbacks.
	ColumnarFallbacks int
	// Timings records every executed stage.
	Timings []StageTiming
	// Failures records every node whose pipeline failed — including
	// recovered panics, whose captured stacks ride along so /stats and
	// the trace can surface them (§5.2 error pin-pointing).
	Failures []StageFailure
}

// StageFailure is one failed node pipeline.
type StageFailure struct {
	// Output is the data object whose pipeline failed.
	Output string
	// Err is the failure message.
	Err string
	// Panic marks failures recovered from a panicking task.
	Panic bool
	// Stack is the captured goroutine stack for panics ("" otherwise).
	Stack string
}

// PanicError is a panic recovered from task execution, turned into a
// structured stage error: the dashboard run fails, the process does
// not.
type PanicError struct {
	// Stage describes the task(s) that panicked.
	Stage string
	// Value is the panic value, stringified.
	Value string
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in stage %s: %s", e.Stage, e.Value)
}

// Slowest returns the n longest stages, descending.
func (s *Stats) Slowest(n int) []StageTiming {
	out := append([]StageTiming(nil), s.Timings...)
	sort.Slice(out, func(a, b int) bool { return out[a].Duration > out[b].Duration })
	return out[:min(n, len(out))]
}

// Result is a completed execution: every materialized data object.
type Result struct {
	// Tables maps data-object names to their contents.
	Tables map[string]*table.Table
	// Stats describes the run.
	Stats Stats
}

// Table returns a materialized data object.
func (r *Result) Table(name string) (*table.Table, bool) {
	t, ok := r.Tables[name]
	return t, ok
}

func (e *Executor) workers() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// recoverStage converts a panic in a task stage into a *PanicError so
// one misbehaving operator fails its node instead of killing the
// process. Install with defer; it writes through errp only on panic.
func recoverStage(stage string, errp *error) {
	if v := recover(); v != nil {
		*errp = &PanicError{
			Stage: stage,
			Value: fmt.Sprint(v),
			Stack: string(debug.Stack()),
		}
	}
}

// RunContext executes the graph under the executor's plan. sources
// supplies the contents of every source node (connector output or
// shared-catalog data), keyed by data-object name. Node pipelines check
// ctx between stages, and nodes waiting on inputs or a scheduler slot
// abandon the wait when ctx dies. On failure it returns the partial
// Result alongside the first error, so callers can still surface
// per-stage failures (Stats.Failures) and the tables that did
// materialize.
func (e *Executor) RunContext(ctx context.Context, g *dag.Graph, env *task.Env, sources map[string]*table.Table) (*Result, error) {
	plan := e.Plan
	if plan == nil {
		if e.Optimize {
			plan = dag.Optimize(g, dag.PlanOptions{Columnar: e.Columnar})
		} else {
			plan = dag.AsWritten(g, e.Columnar)
		}
	}
	res := &Result{
		Tables: make(map[string]*table.Table, len(g.Nodes)),
		Stats:  Stats{RowsProduced: map[string]int{}},
	}
	res.Stats.SkippedSinks = append([]string(nil), plan.SkippedSinks...)
	// Per-node completion latches for dataflow scheduling.
	type slot struct {
		done chan struct{}
		tbl  *table.Table
		err  error
	}
	slots := make(map[string]*slot, len(g.Nodes))
	for name := range g.Nodes {
		slots[name] = &slot{done: make(chan struct{})}
	}
	// sched bounds concurrently executing node pipelines to the worker
	// budget; nodes whose inputs are ready queue for a slot, and the
	// wait is the scheduler queue-wait reported in StageTiming.
	sched := make(chan struct{}, e.workers())
	tr := e.Tracer
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range g.Order {
		n := g.Nodes[name]
		s := slots[name]
		if slices.Contains(plan.SkippedSinks, name) {
			if tr != nil {
				id := tr.StartSpan(e.TraceParent, "node D."+name)
				tr.SpanFlag(id, "skipped")
				tr.EndSpan(id)
			}
			close(s.done)
			continue
		}
		if t, ok := e.Cached[name]; ok && !n.IsSource() {
			s.tbl = t
			res.Stats.CacheHits = append(res.Stats.CacheHits, name)
			if tr != nil {
				id := tr.StartSpan(e.TraceParent, "node D."+name)
				tr.SpanFlag(id, "cache_hit")
				tr.SpanInt(id, "rows_out", int64(t.Len()))
				tr.EndSpan(id)
			}
			close(s.done)
			continue
		}
		if n.IsSource() {
			t, ok := sources[name]
			if !ok {
				s.err = fmt.Errorf("batch: no data supplied for source D.%s", name)
			} else if !t.Schema().Equal(n.Schema) {
				s.err = fmt.Errorf("batch: source D.%s data schema %s does not match resolved schema %s",
					name, t.Schema(), n.Schema)
			} else {
				s.tbl = t
			}
			close(s.done)
			continue
		}
		wg.Add(1)
		go func(n *dag.Node, s *slot) {
			defer wg.Done()
			defer close(s.done)
			// A panicking task must fail its node, never the process;
			// without this recover a goroutine panic is fatal no matter
			// what the caller does.
			defer recoverStage("node D."+n.Name, &s.err)
			ins := make([]*table.Table, len(n.Inputs))
			for i, in := range n.Inputs {
				dep := slots[in]
				select {
				case <-dep.done:
				case <-ctx.Done():
					s.err = ctx.Err()
					return
				}
				if dep.err != nil {
					s.err = fmt.Errorf("batch: D.%s blocked by input D.%s: %w", n.Name, in, dep.err)
					return
				}
				if dep.tbl == nil {
					s.err = fmt.Errorf("batch: D.%s input D.%s was eliminated", n.Name, in)
					return
				}
				ins[i] = dep.tbl
			}
			// Inputs are ready; wait for a scheduler slot.
			ready := time.Now()
			select {
			case sched <- struct{}{}:
			case <-ctx.Done():
				s.err = ctx.Err()
				return
			}
			defer func() { <-sched }()
			queueWait := time.Since(ready)
			nodeSpan := 0
			if tr != nil {
				nodeSpan = tr.StartSpan(e.TraceParent, "node D."+n.Name)
				tr.SpanInt(nodeSpan, "queue_wait_us", queueWait.Microseconds())
			}
			np := plan.Node(n.Name)
			planTag := ""
			if e.Plan != nil {
				planTag = np.Summary()
			}
			p := &pipeline{e: e, env: env, parent: nodeSpan, mode: np.Columnar,
				node: n.Name, planTag: planTag, queueWait: queueWait, stats: &res.Stats, mu: &mu}
			out, stages, err := p.run(ctx, np.Specs, ins, n.Inputs)
			if err == nil && e.Budget != nil {
				err = e.Budget.Charge(0, out.SizeBytes())
			}
			if err == nil {
				err = checkMaxRows(n, out)
			}
			mu.Lock()
			res.Stats.ColumnarFallbacks += p.fallbacks
			if err == nil {
				res.Stats.TasksRun += stages
			}
			mu.Unlock()
			if err != nil {
				if tr != nil {
					tr.SpanFlag(nodeSpan, "error")
					var pe *PanicError
					if errors.As(err, &pe) {
						tr.SpanFlag(nodeSpan, "panic")
					}
					tr.EndSpan(nodeSpan)
				}
				s.err = fmt.Errorf("batch: flow for D.%s: %w", n.Name, err)
				return
			}
			s.tbl = out
			if tr != nil {
				tr.SpanInt(nodeSpan, "rows_out", int64(out.Len()))
				tr.EndSpan(nodeSpan)
			}
		}(n, s)
	}
	wg.Wait()
	var firstErr error
	for _, name := range g.Order {
		s := slots[name]
		if s.err != nil {
			if firstErr == nil {
				firstErr = s.err
			}
			f := StageFailure{Output: name, Err: s.err.Error()}
			var pe *PanicError
			if errors.As(s.err, &pe) {
				f.Panic = true
				f.Stack = pe.Stack
			}
			res.Stats.Failures = append(res.Stats.Failures, f)
		}
		if s.tbl != nil {
			res.Tables[name] = s.tbl
			res.Stats.RowsProduced[name] = s.tbl.Len()
		}
	}
	// A failed run returns its partial result too: Stats.Failures carries
	// the per-node failure detail (panic stacks included) for /stats.
	return res, firstErr
}

// checkMaxRows enforces a node's `max_rows:` data detail — a per-object
// output cap complementing the run-wide Budget. Unparseable values were
// already rejected by flow-file validation; they are ignored here.
func checkMaxRows(n *dag.Node, out *table.Table) error {
	if n.Def == nil {
		return nil
	}
	raw := n.Def.Prop("max_rows")
	if raw == "" {
		return nil
	}
	limit, err := strconv.Atoi(raw)
	if err != nil || limit <= 0 || out.Len() <= limit {
		return nil
	}
	return fmt.Errorf("D.%s produced %d rows, over its max_rows cap %d", n.Name, out.Len(), limit)
}

// RunPipeline executes one linear spec chain over its inputs — the entry
// for pipelines outside the graph (a widget's endpoint prefix) — fusing
// and sharding row-local runs and parallelizing group-bys. Stage spans
// open under parent on e.Tracer, stages charge e.Budget exactly as a
// graph node's do, and cancellation is checked before every stage. It
// returns the output table and the number of stages run.
func (e *Executor) RunPipeline(ctx context.Context, env *task.Env, specs []task.Spec, in []*table.Table, names []string, parent int) (*table.Table, int, error) {
	p := &pipeline{e: e, env: env, parent: parent, mode: dag.ResolveColumnar("", e.Columnar)}
	out, stages, err := p.run(ctx, specs, in, names)
	// A chain with no stages hands its input through: nothing new to charge.
	if err == nil && stages > 0 && e.Budget != nil {
		err = e.Budget.Charge(0, out.SizeBytes())
	}
	return out, stages, err
}

// rowsIn sums input cardinalities for stage telemetry.
func rowsIn(in []*table.Table) int {
	n := 0
	for _, t := range in {
		n += t.Len()
	}
	return n
}

// pipeline is one spec chain in execution: a graph node's, or the one
// RunPipeline was handed.
type pipeline struct {
	e   *Executor
	env *task.Env
	// parent is the span the stage spans open under.
	parent int
	// mode is the resolved columnar mode.
	mode string
	// stats, under mu, receives every executed stage's timing, tagged
	// with the node, its plan summary and — on the node's first stage —
	// its scheduler queue wait; nil (RunPipeline) keeps the stages out of
	// Stats.Timings.
	stats         *Stats
	mu            *sync.Mutex
	node, planTag string
	queueWait     time.Duration
	// fallbacks counts stages that left the columnar path at run time.
	fallbacks int
}

// run executes the chain stage by stage: each goes to a columnar kernel
// when the planner mode and the data allow it, else to the row kernels.
func (p *pipeline) run(ctx context.Context, specs []task.Spec, in []*table.Table, names []string) (*table.Table, int, error) {
	if len(specs) == 0 {
		if len(in) != 1 {
			return nil, 0, fmt.Errorf("pipeline with no tasks needs exactly one input")
		}
		return in[0], 0, nil
	}
	for i := 0; i < len(specs); {
		if err := ctx.Err(); err != nil {
			return nil, i, err
		}
		n := 1
		out, err := p.tryColumnar(specs, i, in, names)
		if out == nil && err == nil {
			out, n, err = p.rowStage(specs[i:], in, names)
		}
		if err != nil {
			return nil, i, err
		}
		i += n
		in, names = []*table.Table{out}, []string{""}
	}
	return in[0], len(specs), nil
}

// rowStage runs the chain's next stage on the row kernels — a fused run
// of row-local specs in one sharded pass, a sharded group-by, or the
// spec's reference Exec — and reports how many specs it consumed.
func (p *pipeline) rowStage(specs []task.Spec, in []*table.Table, names []string) (*table.Table, int, error) {
	single := len(in) == 1
	if rl, ok := specs[0].(task.RowLocal); ok && single {
		// Fuse the maximal run of row-local specs.
		run := []task.RowLocal{rl}
		for _, sp := range specs[1:] {
			next, ok := sp.(task.RowLocal)
			if !ok {
				break
			}
			run = append(run, next)
		}
		nIn := in[0].Len()
		out, err := p.runStage(describeRun(run), PathRow, nIn, func() (*table.Table, []SubStage, error) {
			t, counts, err := p.e.runRowLocal(p.env, run, in[0], firstName(names))
			if err != nil || len(run) == 1 {
				return t, nil, err
			}
			subs := make([]SubStage, len(run))
			rin := nIn
			for k, rl := range run {
				subs[k] = SubStage{Stage: task.Describe(rl), RowsIn: rin, Rows: counts[k]}
				rin = counts[k]
			}
			return t, subs, nil
		})
		return out, len(run), err
	}
	if gr, ok := specs[0].(task.Grouped); ok && single && in[0].Len() >= parallelGroupThreshold {
		out, err := p.runStage(task.Describe(gr), PathRow, in[0].Len(), func() (*table.Table, []SubStage, error) {
			return noSubs(p.e.runGrouped(p.env, gr, in[0], firstName(names)))
		})
		return out, 1, err
	}
	out, err := p.runStage(task.Describe(specs[0]), PathRow, rowsIn(in), func() (*table.Table, []SubStage, error) {
		return noSubs(specs[0].Exec(p.env, in, names))
	})
	return out, 1, err
}

func noSubs(t *table.Table, err error) (*table.Table, []SubStage, error) { return t, nil, err }

// runStage runs one stage, and is the only place a stage meets the
// engine's cross-cutting concerns: its span, its clock, panic isolation,
// its StageTiming record and the run budget's row charge. body is the
// path-specific work; a body that returns colstore.ErrFallback (a kernel
// met data it has no typed path for) yields a nil table so the row
// kernels take the stage, and the pipeline's fallback count moves by one.
func (p *pipeline) runStage(desc, path string, nIn int, body func() (*table.Table, []SubStage, error)) (*table.Table, error) {
	tr := p.e.Tracer
	sid := 0
	if tr != nil {
		sid = tr.StartSpan(p.parent, "stage "+desc)
		if path == PathColumnar {
			tr.SpanFlag(sid, "columnar")
		}
	}
	start := time.Now()
	out, subs, err := execStage(desc, body)
	if err != nil {
		flag := "error"
		if errors.Is(err, colstore.ErrFallback) {
			p.fallbacks++
			flag, err = "fallback", nil
		}
		if tr != nil {
			tr.SpanFlag(sid, flag)
			tr.EndSpan(sid)
		}
		return nil, err
	}
	d := time.Since(start)
	if p.stats != nil {
		p.mu.Lock()
		p.stats.Timings = append(p.stats.Timings, StageTiming{Output: p.node, Stage: desc, RowsIn: nIn, Rows: out.Len(),
			Duration: d, QueueWait: p.queueWait, Path: path, Plan: p.planTag, Sub: subs})
		p.mu.Unlock()
		p.queueWait = 0
	}
	if tr != nil {
		// duration_us carries the exact StageTiming duration, so trace
		// exports and Stats.Timings agree to the microsecond.
		tr.SpanInt(sid, "rows_in", int64(nIn))
		tr.SpanInt(sid, "rows_out", int64(out.Len()))
		tr.SpanInt(sid, "duration_us", d.Microseconds())
		tr.EndSpan(sid)
	}
	if p.e.Budget != nil {
		if err := p.e.Budget.Charge(out.Len(), 0); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// execStage runs one stage body, recovering panics into *PanicError so
// a misbehaving operator fails its pipeline instead of the process.
func execStage(stage string, body func() (*table.Table, []SubStage, error)) (out *table.Table, subs []SubStage, err error) {
	defer recoverStage(stage, &err)
	return body()
}

// parallelGroupThreshold is the input size below which sharded
// aggregation is not worth the coordination cost.
const parallelGroupThreshold = 4096

func firstName(names []string) string {
	if len(names) > 0 {
		return names[0]
	}
	return ""
}

// runRowLocal shards a fused row-local chain across workers. counts
// reports, per task of the run, the rows that task emitted — the
// per-filter selectivity observations the cost-based optimizer feeds
// on (without them a fused run is one opaque stage).
func (e *Executor) runRowLocal(env *task.Env, run []task.RowLocal, in *table.Table, name string) (_ *table.Table, counts []int, _ error) {
	// Bind the whole chain once against the evolving schema.
	fns := make([]task.RowFn, len(run))
	cur := task.Input{Name: name, Schema: in.Schema()}
	for i, rl := range run {
		fn, out, err := rl.BindRow(env, cur)
		if err != nil {
			return nil, nil, err
		}
		fns[i] = fn
		cur = task.Input{Schema: out}
	}
	apply := func(rows []table.Row, sink *table.Table, counts []int) error {
		var walk func(depth int, r table.Row) error
		walk = func(depth int, r table.Row) error {
			if depth == len(fns) {
				sink.Append(r)
				return nil
			}
			var inner error
			err := fns[depth](r, func(nr table.Row) {
				counts[depth]++
				if e := walk(depth+1, nr); e != nil && inner == nil {
					inner = e
				}
			})
			if err != nil {
				return err
			}
			return inner
		}
		for _, r := range rows {
			if err := walk(0, r); err != nil {
				return err
			}
		}
		return nil
	}
	workers := e.workers()
	rows := in.Rows()
	if workers <= 1 || len(rows) < 2*workers {
		out := table.New(cur.Schema)
		counts = make([]int, len(fns))
		if err := apply(rows, out, counts); err != nil {
			return nil, nil, err
		}
		traceRun(env, run, out.Len())
		return out, counts, nil
	}
	parts := make([]*table.Table, workers)
	partCounts := make([][]int, workers)
	err := forShards(describeRun(run), len(rows), workers, func(w, lo, hi int) error {
		parts[w] = table.New(cur.Schema)
		partCounts[w] = make([]int, len(fns))
		return apply(rows[lo:hi], parts[w], partCounts[w])
	})
	if err != nil {
		return nil, nil, err
	}
	out := table.New(cur.Schema)
	counts = make([]int, len(fns))
	for w, part := range parts {
		if part == nil {
			continue
		}
		for _, r := range part.Rows() {
			out.Append(r)
		}
		for i, c := range partCounts[w] {
			counts[i] += c
		}
	}
	traceRun(env, run, out.Len())
	return out, counts, nil
}

// forShards splits [0, n) into at most workers contiguous ranges and runs
// fn over each on its own goroutine, a panic in one becoming that
// shard's *PanicError. It returns the first error in shard order.
func forShards(stage string, n, workers int, fn func(w, lo, hi int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w*chunk < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer recoverStage(stage, &errs[w])
			errs[w] = fn(w, w*chunk, min((w+1)*chunk, n))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// describeRun names a fused row-local run.
func describeRun(run []task.RowLocal) string {
	parts := make([]string, len(run))
	for i, rl := range run {
		parts[i] = task.Describe(rl)
	}
	return strings.Join(parts, " | ")
}

func traceRun(env *task.Env, run []task.RowLocal, rows int) {
	if env == nil || env.Trace == nil {
		return
	}
	for _, rl := range run {
		env.Trace(rl.Type(), rows)
	}
}

// runGrouped shards a Grouped spec: each worker builds a partial
// grouper over its shard; partials merge pairwise.
func (e *Executor) runGrouped(env *task.Env, gr task.Grouped, in *table.Table, name string) (*table.Table, error) {
	workers := e.workers()
	rows := in.Rows()
	if workers <= 1 {
		return gr.Exec(env, []*table.Table{in}, []string{name})
	}
	groupers := make([]task.Grouper, workers)
	input := task.Input{Name: name, Schema: in.Schema()}
	err := forShards(task.Describe(gr), len(rows), workers, func(w, lo, hi int) error {
		g, err := gr.NewGrouper(env, input)
		if err != nil {
			return err
		}
		for _, r := range rows[lo:hi] {
			if err := g.Add(r); err != nil {
				return err
			}
		}
		groupers[w] = g
		return nil
	})
	if err != nil {
		return nil, err
	}
	var root task.Grouper
	for _, g := range groupers {
		if g == nil {
			continue
		}
		if root == nil {
			root = g
		} else if err := root.Merge(g); err != nil {
			return nil, err
		}
	}
	if root == nil {
		if root, err = gr.NewGrouper(env, input); err != nil {
			return nil, err
		}
	}
	out, err := root.Result()
	if err != nil {
		return nil, err
	}
	if env != nil && env.Trace != nil {
		env.Trace(gr.Type(), out.Len())
	}
	return out, nil
}

// SortedNames returns result table names sorted, for stable reporting.
func (r *Result) SortedNames() []string {
	names := make([]string, 0, len(r.Tables))
	for n := range r.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
