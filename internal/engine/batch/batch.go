// Package batch is ShareInsights' data-processing engine — the stand-in
// for the Hadoop/Pig/Spark back-end the paper compiles flows to.
//
// The engine executes a schema-resolved DAG under a dag.Plan, shrunk to
// one process:
//
//   - independent DAG nodes run concurrently, at most
//     Executor.Parallelism at once;
//   - a node's pipeline runs one spec per stage, either on the spec's
//     bound columnar kernel (columnar.go) or on its reference Exec.
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
	// Parallelism bounds how many DAG nodes run at once; <= 0 means
	// GOMAXPROCS. It is the engine's only parallelism: a stage runs on
	// its node's goroutine.
	Parallelism int
	// Plan is what RunContext executes: each node's spec order and the
	// skipped sinks are read from it, and nothing runs that
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
	// Columnar is ColumnarOff to run every stage on rows; "" or
	// ColumnarOn runs each stage on its kernel whenever one binds
	// (columnar.go).
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
	// Stage describes the stage's task (task.Describe).
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
	// Stage describes the task that panicked ("node D.<name>" when the
	// panic escaped its node outside any stage).
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
// process. Install with defer; it writes through errp only on panic,
// and only then builds the stage's label, prefix + stage.
func recoverStage(prefix, stage string, errp *error) {
	if v := recover(); v != nil {
		*errp = &PanicError{
			Stage: prefix + stage,
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
			plan = dag.Optimize(g, dag.PlanOptions{})
		} else {
			plan = dag.AsWritten(g)
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
				id := tr.StartSpan(e.TraceParent, n.SpanName())
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
				id := tr.StartSpan(e.TraceParent, n.SpanName())
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
			defer recoverStage("node D.", n.Name, &s.err)
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
				nodeSpan = tr.StartSpan(e.TraceParent, n.SpanName())
				tr.SpanInt(nodeSpan, "queue_wait_us", queueWait.Microseconds())
			}
			np := plan.Node(n.Name)
			planTag := ""
			if e.Plan != nil {
				planTag = np.Summary()
			}
			p := &pipeline{e: e, env: env, parent: nodeSpan,
				node: n.Name, planTag: planTag, queueWait: queueWait, stats: &res.Stats, mu: &mu}
			out, stages, err := p.run(ctx, np.Specs, ins, n.Inputs)
			if err == nil && e.Budget != nil {
				err = e.Budget.Charge(0, out.SizeBytes())
			}
			if err == nil {
				err = checkMaxRows(n, out)
			}
			if err == nil {
				mu.Lock()
				res.Stats.TasksRun += stages
				mu.Unlock()
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
// output cap complementing the run-wide Budget.
func checkMaxRows(n *dag.Node, out *table.Table) error {
	if n.Def == nil {
		return nil
	}
	if limit := n.Def.MaxRows(); limit > 0 && out.Len() > limit {
		return fmt.Errorf("D.%s produced %d rows, over its max_rows cap %d", n.Name, out.Len(), limit)
	}
	return nil
}

// RunPipeline executes one linear spec chain over its inputs — the entry
// for pipelines outside the graph (a widget's endpoint prefix). Stage
// spans open under parent on e.Tracer, stages charge e.Budget exactly as
// a graph node's do, and cancellation is checked before every stage. It
// returns the output table and the number of stages run.
func (e *Executor) RunPipeline(ctx context.Context, env *task.Env, specs []task.Spec, in []*table.Table, names []string, parent int) (*table.Table, int, error) {
	p := &pipeline{e: e, env: env, parent: parent}
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
	// stats, under mu, receives every executed stage's timing, tagged
	// with the node, its plan summary and — on the node's first stage —
	// its scheduler queue wait; nil (RunPipeline) keeps the stages out of
	// Stats.Timings.
	stats         *Stats
	mu            *sync.Mutex
	node, planTag string
	queueWait     time.Duration
	// cur holds the table a stage hands the next one.
	cur [1]*table.Table
}

// unnamed names an intermediate table: it is no data object.
var unnamed = []string{""}

// run executes the chain one spec per stage: each goes to its columnar
// kernel when one binds and the data allow it, else to its
// reference Exec — decided once, before the stage runs, and never
// revisited. Columnar stages hand each other selections; the output is
// compacted so that it keeps alive no vector four times its size.
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
		out, n, err := p.tryColumnar(specs[i:], in, names)
		if n == 0 && err == nil {
			out, n, err = p.runStage(specs[i], nil, PathRow, rowsIn(in), func() (*table.Table, int, error) {
				out, err := specs[i].Exec(p.env, in, names)
				return out, 0, err
			})
		}
		if err != nil {
			return nil, i, err
		}
		i += n
		p.cur[0] = out
		in, names = p.cur[:], unnamed
	}
	return colstore.Compact(in[0]), len(specs), nil
}

// runStage runs one stage, or a stage and tail, the stage fused into it,
// and returns how many it ran. It is the only place a stage meets the
// engine's cross-cutting concerns: its span, its clock, panic isolation,
// its StageTiming record and the run budget's row charge. body is the
// path-specific work; for a fused pair it also returns the rows the
// first stage alone produces: the tail's rows in. The pair's one kernel
// call is timed on the first stage, and the tail's span is flagged fused.
func (p *pipeline) runStage(spec, tail task.Spec, path string, nIn int, body func() (*table.Table, int, error)) (*table.Table, int, error) {
	tr := p.e.Tracer
	sid := 0
	if tr != nil {
		sid = tr.StartSpan(p.parent, task.StageName(spec))
		if path == PathColumnar {
			tr.SpanFlag(sid, "columnar")
		}
	}
	start := time.Now()
	out, mid, err := execStage(task.Describe(spec), body)
	if err != nil {
		if tr != nil {
			tr.SpanFlag(sid, "error")
			tr.EndSpan(sid)
		}
		return nil, 0, err
	}
	if tail == nil {
		mid = out.Len()
	}
	if err := p.record(spec, sid, path, nIn, mid, time.Since(start)); err != nil || tail == nil {
		return out, 1, err
	}
	if tr != nil {
		sid = tr.StartSpan(p.parent, task.StageName(tail))
		tr.SpanFlag(sid, "columnar")
		tr.SpanFlag(sid, "fused")
	}
	return out, 2, p.record(tail, sid, path, mid, out.Len(), 0)
}

// record closes a run stage: its StageTiming, its span sid's rows and
// duration, and the run budget's charge for its rows.
func (p *pipeline) record(spec task.Spec, sid int, path string, nIn, nOut int, d time.Duration) error {
	if p.stats != nil {
		p.mu.Lock()
		p.stats.Timings = append(p.stats.Timings, StageTiming{Output: p.node, Stage: task.Describe(spec), RowsIn: nIn, Rows: nOut,
			Duration: d, QueueWait: p.queueWait, Path: path, Plan: p.planTag})
		p.mu.Unlock()
		p.queueWait = 0
	}
	if tr := p.e.Tracer; tr != nil {
		// duration_us carries the exact StageTiming duration, so trace
		// exports and Stats.Timings agree to the microsecond.
		tr.SpanInt(sid, "rows_in", int64(nIn))
		tr.SpanInt(sid, "rows_out", int64(nOut))
		tr.SpanInt(sid, "duration_us", d.Microseconds())
		tr.EndSpan(sid)
	}
	if p.e.Budget != nil {
		return p.e.Budget.Charge(nOut, 0)
	}
	return nil
}

// execStage runs one stage body, recovering panics into *PanicError so
// a misbehaving operator fails its pipeline instead of the process.
func execStage(stage string, body func() (*table.Table, int, error)) (out *table.Table, mid int, err error) {
	defer recoverStage("", stage, &err)
	return body()
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
