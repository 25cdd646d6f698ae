package batch

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"shareinsights/internal/dag"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
)

// panicTask is a task that panics on execution — the misbehaving user
// extension the panic-isolation machinery exists for.
type panicTask struct{}

func (panicTask) Type() string                                { return "boom" }
func (panicTask) Out(in []task.Input) (*schema.Schema, error) { return in[0].Schema, nil }

func (panicTask) Exec(*task.Env, []*table.Table, []string) (*table.Table, error) {
	panic("kaboom: simulated operator bug")
}

// passthrough runs a side effect and forwards its input unchanged.
type passthrough struct {
	name string
	fn   func()
}

func (p *passthrough) Type() string                                { return p.name }
func (p *passthrough) Out(in []task.Input) (*schema.Schema, error) { return in[0].Schema, nil }

func (p *passthrough) Exec(_ *task.Env, in []*table.Table, _ []string) (*table.Table, error) {
	p.fn()
	return in[0], nil
}

func buildGraphWith(t testing.TB, src string, reg *task.Registry) *dag.Graph {
	t.Helper()
	f, err := flowfile.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func registerSpec(t testing.TB, reg *task.Registry, name string, s task.Spec) {
	t.Helper()
	if err := reg.Register(name, func(*flowfile.Node) (task.Spec, error) { return s, nil }); err != nil {
		t.Fatal(err)
	}
}

const panicFlow = `
D:
  raw: [k, txt, v]

F:
  D.broken: D.raw | T.boom

T:
  boom:
    type: boom
`

// TestPanicBecomesStageError pins the acceptance criterion: a panicking
// task yields a structured stage error — the process survives, the
// failure names the node, and the captured stack rides along in the
// partial result's Stats.Failures.
func TestPanicBecomesStageError(t *testing.T) {
	reg := task.NewRegistry()
	registerSpec(t, reg, "boom", panicTask{})
	g := buildGraphWith(t, panicFlow, reg)
	for _, par := range []int{1, 4} {
		e := &Executor{Parallelism: par}
		res, err := e.RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": rawTable(5000, 7)})
		if err == nil {
			t.Fatalf("parallelism %d: panicking task did not fail the run", par)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallelism %d: error is not a PanicError: %v", par, err)
		}
		if !strings.Contains(pe.Value, "kaboom") || pe.Stack == "" {
			t.Fatalf("parallelism %d: panic value %q / stack %d bytes", par, pe.Value, len(pe.Stack))
		}
		if !strings.Contains(err.Error(), "D.broken") {
			t.Fatalf("parallelism %d: error does not name the node: %v", par, err)
		}
		if res == nil || len(res.Stats.Failures) != 1 {
			t.Fatalf("parallelism %d: partial result missing failures: %+v", par, res)
		}
		f := res.Stats.Failures[0]
		if f.Output != "broken" || !f.Panic || f.Stack == "" {
			t.Fatalf("parallelism %d: failure record %+v", par, f)
		}
	}
}

const chainFlow = `
D:
  raw: [k, txt, v]

F:
  D.mid: D.raw | T.trip
  D.out: D.mid | T.count

T:
  trip:
    type: trip
  count:
    type: count
`

// TestCancellationStopsDownstreamStages cancels the run from inside an
// upstream stage and asserts the downstream node never executes.
func TestCancellationStopsDownstreamStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var downstream atomic.Int64
	reg := task.NewRegistry()
	registerSpec(t, reg, "trip", &passthrough{name: "trip", fn: cancel})
	registerSpec(t, reg, "count", &passthrough{name: "count", fn: func() { downstream.Add(1) }})
	g := buildGraphWith(t, chainFlow, reg)
	e := &Executor{Parallelism: 2}
	_, err := e.RunContext(ctx, g, &task.Env{}, map[string]*table.Table{"raw": rawTable(10, 3)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := downstream.Load(); n != 0 {
		t.Fatalf("downstream stage ran %d times after cancellation", n)
	}
}

// TestRunContextDeadContextIsPrompt pins that an already-dead context
// fails the run with the context error before any stage executes.
func TestRunContextDeadContextIsPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	reg := task.NewRegistry()
	registerSpec(t, reg, "trip", &passthrough{name: "trip", fn: func() { ran.Add(1) }})
	registerSpec(t, reg, "count", &passthrough{name: "count", fn: func() { ran.Add(1) }})
	g := buildGraphWith(t, chainFlow, reg)
	e := &Executor{}
	res, err := e.RunContext(ctx, g, &task.Env{}, map[string]*table.Table{"raw": rawTable(10, 3)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d stages ran under a dead context", n)
	}
	if res == nil {
		t.Fatal("partial result dropped")
	}
}

// TestRunPipelineContextChecksBetweenStages cancels after the first
// stage of a single pipeline and asserts the second never runs.
func TestRunPipelineContextChecksBetweenStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var second atomic.Int64
	specs := []task.Spec{
		&passthrough{name: "trip", fn: cancel},
		&passthrough{name: "count", fn: func() { second.Add(1) }},
	}
	e := &Executor{}
	in := rawTable(5, 1)
	_, stages, err := e.RunPipeline(ctx, &task.Env{}, specs, []*table.Table{in}, []string{"raw"}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stages != 1 || second.Load() != 0 {
		t.Fatalf("stages = %d, second ran %d times", stages, second.Load())
	}
}
