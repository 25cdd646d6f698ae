// Package batch is ShareInsights' data-processing engine — the stand-in
// for the Hadoop/Pig/Spark back-end the paper compiles flows to.
//
// The engine executes a schema-resolved DAG under a dag.Plan, shrunk to
// one process:
//
//   - independent DAG nodes run concurrently, at most
//     Executor.Parallelism at once;
//   - a node's pipeline runs its stages as groups on the specs' bound
//     columnar kernels (columnar.go), or one at a time through each
//     spec's Exec.
//
// The observable semantics are docs/SEMANTICS.md's and the task
// package's; tests hold every mode to a naive reference.
package batch

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
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
	// Columnar is ColumnarOff to run each stage alone through its
	// Spec.Exec; "" runs each group of stages task.Kernel admits on one
	// colstore.Fan (columnar.go).
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
	// Lazy holds the decoder of each source RunContext is handed no table
	// for: the run decodes it when a node that runs first reads it, and
	// streams it into that node instead when it may (docs/ENGINE.md,
	// "Source lifecycle"). Its table lives only while the run reads it.
	Lazy map[string]Decoder
}

// Decoder decodes a lazy source: whole when push is nil; otherwise it may
// push the rows a streaming colstore.Builder hands on into push and
// return no table, or decline and return its table. A decode into push
// ends with push's first error.
type Decoder func(push func(*colstore.Batch) error) (*table.Table, error)

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
	// PathRow marks a stage run alone through its Spec.Exec.
	PathRow = "row"
	// PathColumnar marks a stage run in a colstore.Fan group.
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
	// Tables maps data-object names to their contents. An inline node
	// (dag.NodePlan.Inline) has none, nor has a lazy source: Table builds
	// them.
	Tables map[string]*table.Table
	// Stats describes the run.
	Stats Stats
	// What Table builds an inline node and a lazy source with.
	g    *dag.Graph
	plan *dag.Plan
	lazy map[string]Decoder
}

// Table returns a data object: one the run materialized, a lazy source,
// decoded anew on every call, or an inline node whose inputs Table
// answers, built now from them — one, or a join's two — through the
// node's planned stages (Executor.RunPipeline, untraced and uncharged; an
// inline chain is filters, maps over expressions and a join, which read
// no environment).
func (r *Result) Table(name string) (*table.Table, bool) {
	if t, ok := r.Tables[name]; ok {
		return t, true
	}
	if decode, ok := r.lazy[name]; ok {
		t, err := decode(nil)
		return t, err == nil
	}
	if !r.inline(name) {
		return nil, false
	}
	n := r.g.Nodes[name]
	ins := make([]*table.Table, len(n.Inputs))
	for i, in := range n.Inputs {
		var ok bool
		if ins[i], ok = r.Table(in); !ok {
			return nil, false
		}
	}
	t, _, err := new(Executor).RunPipeline(context.Background(), &task.Env{}, r.plan.Node(name).Specs, ins, n.Inputs, 0)
	return t, err == nil
}

// has reports whether Table answers name, building nothing.
func (r *Result) has(name string) bool {
	_, built := r.Tables[name]
	_, lazy := r.lazy[name]
	return built || lazy || r.inline(name) && !slices.ContainsFunc(r.g.Nodes[name].Inputs, func(in string) bool { return !r.has(in) })
}

func (r *Result) inline(name string) bool {
	np := r.plan.Node(name)
	return np != nil && np.Inline
}

// plan is the plan RunContext executes: Plan, else one derived as
// Optimize selects.
func (e *Executor) plan(g *dag.Graph) *dag.Plan {
	switch {
	case e.Plan != nil:
		return e.Plan
	case e.Optimize:
		return dag.Optimize(g, dag.PlanOptions{})
	}
	return dag.AsWritten(g)
}

// runs is the one rule for which of g's nodes RunContext executes: a
// produced node runs unless it is a skipped sink or a cache hit, and an
// inline one only when a consumer it feeds runs. A source is read when a
// node that runs or a widget reads it; RunContext needs data only for a
// source that is read, and decodes no other lazy source.
func (e *Executor) runs(g *dag.Graph, plan *dag.Plan) map[string]bool {
	runs := make(map[string]bool, len(g.Nodes))
	for i := len(g.Order) - 1; i >= 0; i-- {
		name := g.Order[i]
		n := g.Nodes[name]
		_, hit := e.Cached[name]
		switch {
		case slices.Contains(plan.SkippedSinks, name), hit && !n.IsSource():
		case n.IsSource() || e.inline(plan, name):
			runs[name] = slices.ContainsFunc(n.Consumers, func(c string) bool { return runs[c] || strings.HasPrefix(c, "widget:") })
		default:
			runs[name] = true
		}
	}
	return runs
}

// inline reports whether node name runs as an inline node: never built,
// its chain run into its consumers.
func (e *Executor) inline(plan *dag.Plan, name string) bool {
	np := plan.Node(name)
	return np != nil && np.Inline && e.Columnar != ColumnarOff
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
// shared-catalog data) that Lazy does not decode, keyed by data-object
// name. Node pipelines check
// ctx between stages, and nodes waiting on inputs or a scheduler slot
// abandon the wait when ctx dies. On failure it returns the partial
// Result alongside the first error, so callers can still surface
// per-stage failures (Stats.Failures) and the tables that did
// materialize.
func (e *Executor) RunContext(ctx context.Context, g *dag.Graph, env *task.Env, sources map[string]*table.Table) (*Result, error) {
	plan := e.plan(g)
	runs := e.runs(g, plan)
	res := &Result{
		Tables: make(map[string]*table.Table, len(g.Nodes)),
		Stats:  Stats{RowsProduced: map[string]int{}},
		g:      g, plan: plan, lazy: e.Lazy,
	}
	res.Stats.SkippedSinks = append([]string(nil), plan.SkippedSinks...)
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
			// A source no node that runs reads may go unsupplied.
			t, ok := sources[name]
			switch {
			case !ok && e.Lazy[name] != nil:
				s.dec = e.Lazy[name]
			case !ok && runs[name]:
				s.err = fmt.Errorf("batch: no data supplied for source D.%s", name)
			case ok && !t.Schema().Equal(n.Schema):
				s.err = fmt.Errorf("batch: source D.%s data schema %s does not match resolved schema %s",
					name, t.Schema(), n.Schema)
			default:
				s.tbl = t
			}
			close(s.done)
			continue
		}
		if !runs[name] {
			close(s.done)
			continue
		}
		// An inline node feeds the consumers this run computes — an inline
		// join's it probes, in the join's place — and waits for the build
		// side of a join it feeds as the probe side.
		var to []fed
		waits, via := n.Inputs, ""
		if e.inline(plan, name) && len(n.Inputs) == 1 {
			from, cons := name, n.Consumers
			if c := g.Nodes[n.Consumers[0]]; len(c.Inputs) == 2 && e.inline(plan, c.Name) {
				via, from, cons = c.Name, c.Name, c.Consumers
				waits = append(waits[:len(waits):len(waits)], other(c.Inputs, name))
			}
			to = make([]fed, 0, len(cons))
			for _, c := range cons {
				if runs[c] {
					to = append(to, fed{name: c})
					if in := other(g.Nodes[c].Inputs, from); in != "" {
						waits = append(waits[:len(waits):len(waits)], in)
					}
				}
			}
		}
		wg.Add(1)
		go func(n *dag.Node, s *slot, to []fed, waits []string) {
			defer wg.Done()
			defer close(s.done)
			// A panicking task must fail its node, never the process;
			// without this recover a goroutine panic is fatal no matter
			// what the caller does.
			defer recoverStage("node D.", n.Name, &s.err)
			ins := make([]*table.Table, len(n.Inputs))
			names := n.Inputs
			// An inline node that alone reads a lazy source may stream it.
			var stream *slot
			if src := slots[n.Inputs[0]]; to != nil && src.dec != nil && readers(g, runs, n.Inputs[0]) == 1 {
				stream = src
			}
			for i, in := range waits {
				dep := slots[in]
				select {
				case <-dep.done:
				case <-ctx.Done():
					s.err = ctx.Err()
					return
				}
				// A build side the inline run probes is read there: a failed
				// one fails the consumer, not this node.
				if i < len(ins) && dep != stream {
					var err error
					if ins[i], err = dep.get(); err != nil {
						s.err = blocked(n.Name, in, err)
						return
					}
				}
			}
			if s.through {
				return // its inline probe side's run ran it into its consumers
			}
			skip := 0
			if s.fed != nil {
				// An inline input's run ran this node's first group.
				ins, names, skip = []*table.Table{s.fed.tbl}, unnamed, s.fed.skip
			}
			if i := slices.Index(ins, nil); i >= 0 && stream == nil {
				s.err = fmt.Errorf("batch: D.%s input D.%s was eliminated", n.Name, n.Inputs[i])
				return
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
			if to != nil {
				tables := func(name string) *table.Table {
					t, _ := slots[name].get()
					return t
				}
				sch := g.Nodes[n.Inputs[0]].Schema
				if ins[0] != nil {
					sch = ins[0].Schema()
				}
				rows, stages, ran, err := p.inline(ctx, g, plan, np.Specs, sch, ins[0], stream, via, to, tables)
				if !ran && err == nil && stream != nil {
					// The node runs as any other, on the source decoded whole.
					if ins[0], err = stream.get(); err != nil {
						p.end(nodeSpan, 0, err)
						s.err = blocked(n.Name, n.Inputs[0], err)
						return
					}
				}
				if ran || err != nil {
					if err == nil {
						for i := range to {
							slots[to[i].name].fed = &to[i]
						}
						if via != "" {
							slots[via].through = true
						}
						mu.Lock()
						res.Stats.TasksRun += stages
						res.Stats.RowsProduced[n.Name] = rows
						mu.Unlock()
					}
					p.end(nodeSpan, rows, err)
					if err != nil {
						s.err = fmt.Errorf("batch: flow for D.%s: %w", n.Name, err)
					}
					return
				}
			}
			if s.fed != nil {
				for _, r := range s.fed.pending {
					if err := r.on(p); err != nil {
						p.end(nodeSpan, 0, err)
						s.err = fmt.Errorf("batch: flow for D.%s: %w", n.Name, err)
						return
					}
				}
			}
			out, stages, err := p.run(ctx, np.Specs[skip:], ins, names)
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
				p.end(nodeSpan, 0, err)
				s.err = fmt.Errorf("batch: flow for D.%s: %w", n.Name, err)
				return
			}
			s.tbl = out
			p.end(nodeSpan, out.Len(), nil)
		}(n, s, to, waits)
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
		if s.tbl != nil && s.err == nil {
			if s.dec == nil {
				res.Tables[name] = s.tbl
			}
			res.Stats.RowsProduced[name] = s.tbl.Len()
		}
		if s.streamed {
			res.Stats.RowsProduced[name] = s.rows
		}
	}
	// A failed run returns its partial result too: Stats.Failures carries
	// the per-node failure detail (panic stacks included) for /stats.
	return res, firstErr
}

// slot is one node's state in a run: a latch for dataflow scheduling,
// closed when its table, or its error, is set. An inline node that ran
// holds no table: its run puts each fed consumer's first-group output in
// that consumer's fed before the node's done closes, and the consumer
// goes on from it. A lazy source's slot holds its decoder: its first
// reader decodes it (get), unless a run streams it.
type slot struct {
	done chan struct{}
	tbl  *table.Table
	err  error
	fed  *fed
	// through marks an inline join its probe side's run ran.
	through bool
	dec     Decoder
	once    sync.Once
	// rows is what a streamed source pushed; streamed marks it set.
	rows     int
	streamed bool
}

// get returns the slot's table, decoding a lazy source's whole the first
// time.
func (s *slot) get() (*table.Table, error) {
	if s.dec != nil {
		s.once.Do(func() { s.tbl, s.err = s.dec(nil) })
	}
	return s.tbl, s.err
}

// stream runs f over the rows lazy source s's decoder pushes, a batch at
// a time, into its folds: ok is false when it declines — f does not
// stream, or its run or the format declines. A decode that fails, or
// that the format declines, leaves its error or its table to get.
func (s *slot) stream(ctx context.Context, f colstore.Fan, build *colstore.Batch) ([]*colstore.Batch, []colstore.FanStage, bool, error) {
	st := f.Stream(build)
	if st == nil {
		return nil, nil, false, nil
	}
	rows := 0
	t, err := s.dec(func(b *colstore.Batch) error {
		rows += b.Len()
		return cmp.Or(st.Push(b), ctx.Err())
	})
	if t == nil && err == nil {
		s.rows, s.streamed = rows, true
		outs, stages, err := st.Finish()
		return outs, stages, true, err
	}
	if !errors.Is(err, colstore.ErrDeclined) {
		s.once.Do(func() { s.tbl, s.err = t, err })
	}
	return nil, nil, false, nil
}

// other is the input of ins that is not name: "" for none.
func other(ins []string, name string) string {
	for _, in := range ins {
		if in != name {
			return in
		}
	}
	return ""
}

// readers counts the nodes that run and read source name.
func readers(g *dag.Graph, runs map[string]bool, name string) int {
	n := 0
	for _, c := range g.Nodes[name].Consumers {
		if runs[c] {
			n++
		}
	}
	return n
}

// blocked is node name's error for its input in's failure.
func blocked(name, in string, err error) error {
	return fmt.Errorf("batch: D.%s blocked by input D.%s: %w", name, in, err)
}

// end closes a node's span: its rows out, or its error.
func (p *pipeline) end(span, rows int, err error) {
	tr := p.e.Tracer
	switch {
	case tr == nil:
		return
	case err == nil:
		tr.SpanInt(span, "rows_out", int64(rows))
	default:
		tr.SpanFlag(span, "error")
		var pe *PanicError
		if errors.As(err, &pe) {
			tr.SpanFlag(span, "panic")
		}
	}
	tr.EndSpan(span)
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

// run executes the chain: each group task.Kernel admits runs on its
// bound kernels when they bind, else its first stage runs alone through
// its Exec — decided once, before the stage runs, and never revisited.
// Stages hand each other selections; the output is compacted so that it
// keeps alive no vector four times its size.
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
		out, n, err := p.columnar(specs[i:], in, names)
		if n == 0 && err == nil {
			n = 1
			out, err = p.runStage(specs[i], PathRow, rowsIn(in), func() (*table.Table, int, error) {
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

// runStage runs one row stage. With record, it is where a stage meets
// the engine's cross-cutting concerns: its span, its clock, panic
// isolation, its StageTiming record and the run budget's row charge.
// body is the stage's work.
func (p *pipeline) runStage(spec task.Spec, path string, nIn int, body func() (*table.Table, int, error)) (*table.Table, error) {
	tr := p.e.Tracer
	sid := p.open(spec, path)
	start := time.Now()
	out, _, err := execStage(task.Describe(spec), body)
	if err != nil {
		if tr != nil {
			tr.SpanFlag(sid, "error")
			tr.EndSpan(sid)
		}
		return nil, err
	}
	return out, p.record(spec, sid, path, nIn, out.Len(), time.Since(start))
}

// open opens spec's stage span, flagged columnar when path is: 0 when
// the run is untraced.
func (p *pipeline) open(spec task.Spec, path string) int {
	tr := p.e.Tracer
	if tr == nil {
		return 0
	}
	sid := tr.StartSpan(p.parent, task.StageName(spec))
	if path == PathColumnar {
		tr.SpanFlag(sid, "columnar")
	}
	return sid
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

// SortedNames returns the names Table answers, sorted, for stable
// reporting.
func (r *Result) SortedNames() []string {
	names := slices.DeleteFunc(slices.Clone(r.g.Order), func(n string) bool { return !r.has(n) })
	sort.Strings(names)
	return names
}
