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
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shareinsights/internal/dag"
	"shareinsights/internal/obs"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
)

// Executor runs flow-file DAGs.
type Executor struct {
	// Parallelism caps worker fan-out; <= 0 means GOMAXPROCS.
	Parallelism int
	// Optimize applies the DAG optimizer passes (filter pushdown, dead
	// sink elimination) before execution. Off, the engine runs the
	// pipelines exactly as written — the E6 ablation baseline.
	Optimize bool
	// Plan, when non-nil, is a cost-based plan from dag.Optimize: the
	// executor takes each node's spec order, columnar mode and skipped
	// sinks from it instead of re-deriving the per-run rewrites that
	// Optimize alone applies. Plan takes precedence over Optimize.
	Plan *dag.Plan
	// Tracer receives execution spans (one per DAG node, one per
	// pipeline stage). nil disables tracing; every span call is guarded
	// by a nil check so the disabled path adds zero allocations.
	Tracer obs.Tracer
	// TraceParent is the span id node spans open under (0 = top level).
	TraceParent int
	// Columnar is the default planner mode for the vectorized execution
	// path: ColumnarAuto, ColumnarOn or ColumnarOff ("" means auto). A
	// node's `columnar:` data detail overrides it per data object.
	Columnar string
	// Budget, when non-nil, is charged as stages and nodes materialize
	// output (rows per stage, bytes per node result). Once a charge
	// returns an error the charged node fails with it, bounding a
	// runaway flow's memory at node granularity. nil means unlimited.
	Budget Budget
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
	if n < len(out) {
		out = out[:n]
	}
	return out
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

// Run executes the graph. sources supplies the contents of every source
// node (connector output or shared-catalog data), keyed by data-object
// name.
func (e *Executor) Run(g *dag.Graph, env *task.Env, sources map[string]*table.Table) (*Result, error) {
	return e.RunWithCacheContext(context.Background(), g, env, sources, nil)
}

// RunContext is Run honoring ctx: node pipelines check for
// cancellation between stages, and nodes waiting on inputs or a
// scheduler slot abandon the wait when ctx dies.
func (e *Executor) RunContext(ctx context.Context, g *dag.Graph, env *task.Env, sources map[string]*table.Table) (*Result, error) {
	return e.RunWithCacheContext(ctx, g, env, sources, nil)
}

// RunWithCache is Run with an incremental-execution cache: produced
// nodes present in cached are served directly, skipping their pipelines
// (and, transitively, nothing upstream runs solely for them). Callers
// must only supply entries whose content signature is unchanged — see
// dag.Graph.Signatures.
func (e *Executor) RunWithCache(g *dag.Graph, env *task.Env, sources, cached map[string]*table.Table) (*Result, error) {
	return e.RunWithCacheContext(context.Background(), g, env, sources, cached)
}

// RunWithCacheContext is RunWithCache honoring ctx. On failure it
// returns the partial Result alongside the first error, so callers can
// still surface per-stage failures (Stats.Failures) and the tables that
// did materialize.
func (e *Executor) RunWithCacheContext(ctx context.Context, g *dag.Graph, env *task.Env, sources, cached map[string]*table.Table) (*Result, error) {
	res := &Result{
		Tables: make(map[string]*table.Table, len(g.Nodes)),
		Stats:  Stats{RowsProduced: map[string]int{}},
	}
	skip := map[string]bool{}
	if e.Plan != nil {
		res.Stats.SkippedSinks = append([]string(nil), e.Plan.SkippedSinks...)
	} else if e.Optimize {
		res.Stats.SkippedSinks = g.DeadSinks()
	}
	for _, s := range res.Stats.SkippedSinks {
		skip[s] = true
	}
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
	var fallbacks atomic.Int64
	for _, name := range g.Order {
		n := g.Nodes[name]
		s := slots[name]
		if skip[name] {
			if tr != nil {
				id := tr.StartSpan(e.TraceParent, "node D."+name)
				tr.SpanFlag(id, "skipped")
				tr.EndSpan(id)
			}
			close(s.done)
			continue
		}
		if t, ok := cached[name]; ok && !n.IsSource() {
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
			specs := n.Specs
			nodeColumnar := n.ColumnarMode()
			planTag := ""
			if np := e.Plan.Node(n.Name); np != nil && !np.Source {
				// The cost-based plan fixed this node's rewrites and
				// columnar mode at plan time; run exactly that.
				specs = np.Specs
				if np.Columnar != "" {
					nodeColumnar = np.Columnar
				}
				planTag = np.Summary()
			} else if e.Optimize {
				specs = dag.PushdownFilters(specs)
			}
			first := true
			var budgetErr error
			var budgetMu sync.Mutex
			record := func(t StageTiming) {
				t.Output = n.Name
				t.Plan = planTag
				if first {
					t.QueueWait = queueWait
					first = false
				}
				if e.Budget != nil {
					if cerr := e.Budget.Charge(t.Rows, 0); cerr != nil {
						budgetMu.Lock()
						if budgetErr == nil {
							budgetErr = cerr
						}
						budgetMu.Unlock()
					}
				}
				mu.Lock()
				res.Stats.Timings = append(res.Stats.Timings, t)
				mu.Unlock()
			}
			out, stages, err := e.runPipelineCounted(ctx, env, specs, ins, n.Inputs, record, tr, nodeSpan, nodeColumnar, &fallbacks)
			if err == nil {
				budgetMu.Lock()
				err = budgetErr
				budgetMu.Unlock()
			}
			if err == nil && e.Budget != nil {
				err = e.Budget.Charge(0, out.SizeBytes())
			}
			if err == nil {
				err = checkMaxRows(n, out)
			}
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
			mu.Lock()
			res.Stats.TasksRun += stages
			mu.Unlock()
		}(n, s)
	}
	wg.Wait()
	res.Stats.ColumnarFallbacks = int(fallbacks.Load())
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
	if firstErr != nil {
		// Return the partial result too: Stats.Failures carries the
		// per-node failure detail (panic stacks included) for /stats.
		return res, firstErr
	}
	return res, nil
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
	if err != nil || limit <= 0 {
		return nil
	}
	if out.Len() > limit {
		return fmt.Errorf("D.%s produced %d rows, over its max_rows cap %d", n.Name, out.Len(), limit)
	}
	return nil
}

// RunPipeline executes one linear spec chain over its inputs, fusing and
// sharding row-local runs and parallelizing group-bys. It returns the
// output table and the number of stages run.
func (e *Executor) RunPipeline(env *task.Env, specs []task.Spec, in []*table.Table, names []string) (*table.Table, int, error) {
	return e.runPipeline(context.Background(), env, specs, in, names, nil, nil, 0, "")
}

// RunPipelineContext is RunPipeline honoring ctx: cancellation is
// checked before every stage, so a dead context stops the chain between
// stages instead of running it to completion.
func (e *Executor) RunPipelineContext(ctx context.Context, env *task.Env, specs []task.Spec, in []*table.Table, names []string) (*table.Table, int, error) {
	return e.runPipeline(ctx, env, specs, in, names, nil, nil, 0, "")
}

// RunPipelineTraced is RunPipeline with per-stage execution spans
// opened under parent on tr (nil tr disables tracing).
func (e *Executor) RunPipelineTraced(env *task.Env, specs []task.Spec, in []*table.Table, names []string, tr obs.Tracer, parent int) (*table.Table, int, error) {
	return e.runPipeline(context.Background(), env, specs, in, names, nil, tr, parent, "")
}

// RunPipelineContextTraced combines RunPipelineContext and
// RunPipelineTraced.
func (e *Executor) RunPipelineContextTraced(ctx context.Context, env *task.Env, specs []task.Spec, in []*table.Table, names []string, tr obs.Tracer, parent int) (*table.Table, int, error) {
	return e.runPipeline(ctx, env, specs, in, names, nil, tr, parent, "")
}

// rowsIn sums input cardinalities for stage telemetry.
func rowsIn(in []*table.Table) int {
	n := 0
	for _, t := range in {
		n += t.Len()
	}
	return n
}

func (e *Executor) runPipeline(ctx context.Context, env *task.Env, specs []task.Spec, in []*table.Table, names []string, record func(StageTiming), tr obs.Tracer, parent int, nodeColumnar string) (*table.Table, int, error) {
	return e.runPipelineCounted(ctx, env, specs, in, names, record, tr, parent, nodeColumnar, nil)
}

// runPipelineCounted is runPipeline with a run-wide columnar-fallback
// counter (nil when the caller does not track fallbacks).
func (e *Executor) runPipelineCounted(ctx context.Context, env *task.Env, specs []task.Spec, in []*table.Table, names []string, record func(StageTiming), tr obs.Tracer, parent int, nodeColumnar string, fb *atomic.Int64) (*table.Table, int, error) {
	if record == nil {
		record = func(StageTiming) {}
	}
	if len(specs) == 0 {
		if len(in) != 1 {
			return nil, 0, fmt.Errorf("pipeline with no tasks needs exactly one input")
		}
		return in[0], 0, nil
	}
	cur := in
	curNames := names
	stages := 0
	i := 0
	colMode := e.columnarMode(nodeColumnar)
	for i < len(specs) {
		if err := ctx.Err(); err != nil {
			return nil, stages, err
		}
		single := len(cur) == 1
		if colMode != ColumnarOff {
			out, err := e.tryColumnar(env, specs, i, colMode, cur, curNames, record, tr, parent, fb)
			if err != nil {
				return nil, stages, err
			}
			if out != nil {
				stages++
				cur = []*table.Table{out}
				curNames = []string{""}
				i++
				continue
			}
		}
		if rl, ok := specs[i].(task.RowLocal); ok && single {
			// Fuse the maximal run of row-local specs.
			run := []task.RowLocal{rl}
			j := i + 1
			for j < len(specs) {
				next, ok := specs[j].(task.RowLocal)
				if !ok {
					break
				}
				run = append(run, next)
				j++
			}
			desc := describeRun(run)
			nIn := cur[0].Len()
			sid := 0
			if tr != nil {
				sid = tr.StartSpan(parent, "stage "+desc)
			}
			start := time.Now()
			var subs []SubStage
			out, err := execStage(desc, func() (*table.Table, error) {
				t, counts, err := e.runRowLocal(env, run, cur[0], firstName(curNames))
				if err == nil && len(run) > 1 {
					subs = make([]SubStage, len(run))
					rin := nIn
					for k, rl := range run {
						subs[k] = SubStage{Stage: task.Describe(rl), RowsIn: rin, Rows: counts[k]}
						rin = counts[k]
					}
				}
				return t, err
			})
			if err != nil {
				return nil, stages, err
			}
			d := time.Since(start)
			record(StageTiming{Stage: desc, RowsIn: nIn, Rows: out.Len(), Duration: d, Path: PathRow, Sub: subs})
			endStageSpan(tr, sid, nIn, out.Len(), d)
			stages += len(run)
			cur = []*table.Table{out}
			curNames = []string{""}
			i = j
			continue
		}
		if gr, ok := specs[i].(task.Grouped); ok && single && cur[0].Len() >= parallelGroupThreshold {
			desc := task.Describe(gr)
			nIn := cur[0].Len()
			sid := 0
			if tr != nil {
				sid = tr.StartSpan(parent, "stage "+desc)
			}
			start := time.Now()
			out, err := execStage(desc, func() (*table.Table, error) {
				return e.runGrouped(env, gr, cur[0], firstName(curNames))
			})
			if err != nil {
				return nil, stages, err
			}
			d := time.Since(start)
			record(StageTiming{Stage: desc, RowsIn: nIn, Rows: out.Len(), Duration: d, Path: PathRow})
			endStageSpan(tr, sid, nIn, out.Len(), d)
			stages++
			cur = []*table.Table{out}
			curNames = []string{""}
			i++
			continue
		}
		desc := task.Describe(specs[i])
		nIn := rowsIn(cur)
		sid := 0
		if tr != nil {
			sid = tr.StartSpan(parent, "stage "+desc)
		}
		start := time.Now()
		spec := specs[i]
		out, err := execStage(desc, func() (*table.Table, error) {
			return spec.Exec(env, cur, curNames)
		})
		if err != nil {
			return nil, stages, err
		}
		d := time.Since(start)
		record(StageTiming{Stage: desc, RowsIn: nIn, Rows: out.Len(), Duration: d, Path: PathRow})
		endStageSpan(tr, sid, nIn, out.Len(), d)
		stages++
		cur = []*table.Table{out}
		curNames = []string{""}
		i++
	}
	return cur[0], stages, nil
}

// execStage runs one stage body, recovering panics into *PanicError so
// a misbehaving operator fails its pipeline instead of the process.
func execStage(stage string, fn func() (*table.Table, error)) (out *table.Table, err error) {
	defer recoverStage(stage, &err)
	return fn()
}

// endStageSpan attaches the stage's telemetry and closes its span. The
// duration_us attribute carries the exact StageTiming duration so
// trace exports and Stats.Timings agree to the microsecond.
func endStageSpan(tr obs.Tracer, id, rowsIn, rowsOut int, d time.Duration) {
	if tr == nil {
		return
	}
	tr.SpanInt(id, "rows_in", int64(rowsIn))
	tr.SpanInt(id, "rows_out", int64(rowsOut))
	tr.SpanInt(id, "duration_us", d.Microseconds())
	tr.EndSpan(id)
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
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (len(rows) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if lo >= len(rows) {
			break
		}
		if hi > len(rows) {
			hi = len(rows)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer recoverStage(describeRun(run), &errs[w])
			part := table.New(cur.Schema)
			pc := make([]int, len(fns))
			errs[w] = apply(rows[lo:hi], part, pc)
			parts[w] = part
			partCounts[w] = pc
		}(w, lo, hi)
	}
	wg.Wait()
	out := table.New(cur.Schema)
	counts = make([]int, len(fns))
	for w, part := range parts {
		if errs[w] != nil {
			return nil, nil, errs[w]
		}
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
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (len(rows) + workers - 1) / workers
	input := task.Input{Name: name, Schema: in.Schema()}
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if lo >= len(rows) {
			break
		}
		if hi > len(rows) {
			hi = len(rows)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer recoverStage(task.Describe(gr), &errs[w])
			g, err := gr.NewGrouper(env, input)
			if err != nil {
				errs[w] = err
				return
			}
			for _, r := range rows[lo:hi] {
				if err := g.Add(r); err != nil {
					errs[w] = err
					return
				}
			}
			groupers[w] = g
		}(w, lo, hi)
	}
	wg.Wait()
	var root task.Grouper
	for w := range groupers {
		if errs[w] != nil {
			return nil, errs[w]
		}
		if groupers[w] == nil {
			continue
		}
		if root == nil {
			root = groupers[w]
			continue
		}
		if err := root.Merge(groupers[w]); err != nil {
			return nil, err
		}
	}
	if root == nil {
		var err error
		root, err = gr.NewGrouper(env, input)
		if err != nil {
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
