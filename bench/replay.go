package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"shareinsights/internal/admission"
	"shareinsights/internal/analyze"
	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/engine/cube"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/store"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
	"shareinsights/internal/vcs"
)

// The layer replay pushes a cycle's generated inputs through each
// layer's public functions in pipeline order, one span per call. It
// prices what the program's own trace does not break out (parsing,
// compiling, planning, rendering, the gate, the store) and what it only
// shows fused (the columnar kernels inside a stage).
//
// A span's host says where that work sits in a measured cycle, so that
// attribute can carve it out of the right interval:
//
//	"<step>"     the request named <step>, outside the program's run span
//	"run-self"   inside the program's run span, outside its child spans
//	"node-self"  inside a node span, outside its stage spans
//	"<function>" inside another replayed call
//	hostNone     already covered by a span of the program's trace, or
//	             not on the cycle's path; reported as a metric only
const (
	hostNone     = "-"
	hostRunSelf  = "run-self"
	hostNodeSelf = "node-self"
)

type replayer struct {
	rec *recorder
	err error
}

// call records one span around fn. After the first error the replay
// stops calling: the error is reported once, by replay's caller.
func (rp *replayer) call(name, layer, host string, fn func() error) {
	if rp.err != nil {
		return
	}
	id := rp.rec.start(name, layer)
	err := fn()
	rp.rec.end(id)
	if id >= 0 {
		rp.rec.spans[id].Host = host
	}
	if err != nil {
		rp.err = fmt.Errorf("replay %s: %w", name, err)
	}
}

// analyzeOptions mirrors what the server and Platform.Compile hand the
// analyzer.
func analyzeOptions(p *dashboard.Platform) analyze.Options {
	return analyze.Options{Tasks: p.Tasks, Connectors: p.Connectors, Shared: p.Catalog.ResolveSchema}
}

// compile replays what a run request does before the run span opens:
// parse, then Platform.Compile with its three inner passes timed again
// on their own.
func (rp *replayer) compile(p *dashboard.Platform, name, text string, resources map[string][]byte, parseHost, compileHost string) *dashboard.Dashboard {
	var f *flowfile.File
	var d *dashboard.Dashboard
	rp.call("flowfile.Parse", "flowfile", parseHost, func() (err error) {
		f, err = flowfile.Parse(name, text)
		return err
	})
	rp.call("dashboard.Compile", "dashboard", compileHost, func() (err error) {
		d, err = p.Compile(f, resources)
		return err
	})
	rp.call("flowfile.Validate", "flowfile", "dashboard.Compile", func() error { return f.Validate(true) })
	rp.call("dag.Build", "dag", "dashboard.Compile", func() error {
		_, err := dag.Build(f, p.Tasks, p.Catalog.ResolveSchema)
		return err
	})
	// Compile derives the optimizer's hints from the same lint walk.
	rp.call("analyze.LintWithFacts", "analyze", "dashboard.Compile", func() error {
		analyze.LintWithFacts(f, analyzeOptions(p))
		return nil
	})
	return d
}

// run replays the inside of the run span: plan, load, fingerprint (when
// the platform keeps a node cache), then the DAG kernel by kernel and
// once more through the executor, then the widget refresh.
func (rp *replayer) run(p *dashboard.Platform, d *dashboard.Dashboard, resources map[string][]byte) {
	if rp.err != nil {
		return
	}
	rp.call("dag.Optimize", "dag", hostRunSelf, func() error {
		if d.Explain() == nil {
			return fmt.Errorf("no plan: optimizer disabled")
		}
		return nil
	})
	sources := map[string]*table.Table{}
	for _, name := range d.Graph.Sources() {
		n := d.Graph.Nodes[name]
		rp.call("connector.Load", "connector", hostNone, func() (err error) {
			if src, ok := strings.CutPrefix(n.Def.Prop("source"), "data:"); ok {
				sources[name], err = p.Connectors.Decode(n.Def, n.Schema, resources[src])
			} else {
				sources[name], _, err = p.Connectors.LoadContext(context.Background(), n.Def, n.Schema, nil, 0)
			}
			return err
		})
		if p.Cache != nil {
			rp.call("table.Fingerprint", "table", hostRunSelf, func() error {
				sources[name].Fingerprint()
				return nil
			})
		}
	}
	if rp.err != nil {
		return
	}
	rp.kernels(d.Graph, d.Env(), sources)
	rp.call("batch.Executor.RunContext", "batch", hostNone, func() error {
		exec := &batch.Executor{Parallelism: p.Parallelism, Optimize: p.Optimize, Plan: d.Explain(), Columnar: p.Columnar}
		_, err := exec.RunContext(context.Background(), d.Graph, d.Env(), sources)
		return err
	})
	rp.call("dashboard.Run", "dashboard", hostNone, d.Run)
	rp.call("dashboard.RefreshWidgets", "dashboard", hostNone, d.RefreshWidgets)
}

// kernels walks the DAG the way engine/batch does, stage by stage: a
// spec that binds to a columnar kernel runs on a colstore.Batch
// (converted on entry, converted back when a row stage or the node's end
// needs a table), anything else runs its row Exec.
func (rp *replayer) kernels(g *dag.Graph, env *task.Env, sources map[string]*table.Table) {
	tables := map[string]*table.Table{}
	for k, v := range sources {
		tables[k] = v
	}
	for _, name := range g.Order {
		n := g.Nodes[name]
		if n.IsSource() || rp.err != nil {
			continue
		}
		cur := make([]*table.Table, len(n.Inputs))
		for i, in := range n.Inputs {
			cur[i] = tables[in]
		}
		names := n.Inputs
		var b *colstore.Batch
		toTable := func() {
			if b != nil {
				rp.call("colstore.ToTable", "colstore", hostNodeSelf, func() error {
					cur, names = []*table.Table{b.ToTable()}, []string{""}
					return nil
				})
				b = nil
			}
		}
		for _, sp := range n.Specs {
			if k := bindKernel(sp, env, cur, b); k != nil {
				if b == nil {
					rp.call("colstore.FromTable", "colstore", hostNodeSelf, func() error {
						var ok bool
						if b, ok = colstore.FromTable(cur[0]); !ok {
							return fmt.Errorf("D.%s: table does not convert", name)
						}
						return nil
					})
				}
				rp.call(fmt.Sprintf("colstore.%s.Run", strings.TrimPrefix(fmt.Sprintf("%T", k), "*colstore.")), "colstore", hostNone,
					func() (err error) {
						b, err = k.Run(b)
						return err
					})
				continue
			}
			toTable()
			rp.call("task."+sp.Type()+".Exec", "task", hostNone, func() error {
				out, err := sp.Exec(env, cur, names)
				cur, names = []*table.Table{out}, []string{""}
				return err
			})
		}
		toTable()
		if rp.err == nil {
			tables[name] = cur[0]
		}
	}
}

// bindKernel returns sp's columnar kernel when the engine's auto mode
// would vectorize it: a single input of at least the planner's
// threshold, and a spec that binds.
func bindKernel(sp task.Spec, env *task.Env, cur []*table.Table, b *colstore.Batch) colstore.Kernel {
	v, ok := sp.(task.Vectorizable)
	if !ok || len(cur) != 1 {
		return nil
	}
	in := task.Input{}
	switch {
	case b != nil:
		in.Schema = b.Schema()
	case cur[0].Len() >= dag.ColumnarAutoThreshold:
		in.Schema = cur[0].Schema()
	default:
		return nil
	}
	k, _, ok := v.BindVec(env, in)
	if !ok {
		return nil
	}
	return k
}

// interact replays serve_hot's viewer requests against a dashboard that
// has run: the gate, the result cache, a selection through the cube,
// the ad-hoc query and the page render.
func (rp *replayer) interact(d *dashboard.Dashboard, key string, gate *admission.Gate, rc *admission.ResultCache, hist *history.Recorder) {
	admit := func(host string) {
		rp.call("admission.Gate.Acquire", "admission", host, func() error {
			release, err := gate.Acquire(context.Background(), "")
			if err == nil {
				release()
			}
			return err
		})
	}
	admit("run")
	// The run handler parses the flow file before it asks the cache.
	rp.call("flowfile.Parse", "flowfile", "run", func() error {
		_, err := flowfile.Parse(d.Name, d.File.String())
		return err
	})
	rp.call("admission.ResultCache.Do", "admission", "run", func() error {
		_, outcome, err := rc.Do(context.Background(), "replay", func() (any, error) { return d, nil })
		if err == nil && outcome != admission.OutcomeHit {
			err = fmt.Errorf("outcome %q, want hit", outcome)
		}
		return err
	})
	// A served hit is recorded in the flight recorder as "cached".
	rp.call("history.Recorder.Record", "history", "run", func() error {
		_, err := hist.Record(&history.RunRecord{Dashboard: d.Name, Status: "cached"})
		return err
	})

	admit("select")
	rp.call("dashboard.Select", "dashboard", "select", func() error { return d.Select("picker", key) })
	if t, ok := d.Endpoint("by_region_product"); ok {
		// Each of the two dependents owns a cube like this one.
		var c *cube.Cube
		var dim *cube.Dimension
		var grp *cube.Group
		rp.call("cube.New", "cube", hostNone, func() (err error) {
			c = cube.New(t)
			if dim, err = c.Dimension("region"); err != nil {
				return err
			}
			keyDim, err := c.Dimension("product")
			if err != nil {
				return err
			}
			grp, err = c.GroupBy(keyDim, cube.Sum, "total")
			return err
		})
		rp.call("cube.Dimension.Filter", "cube", "dashboard.Select", func() error {
			dim.Filter(key)
			_, err := grp.Table("product", "total")
			return err
		})
	}

	admit("adhoc")
	rp.call("dashboard.AdhocQuery", "dashboard", "adhoc", func() error {
		_, err := d.AdhocQuery("by_region_product", "region", "sum", "total")
		return err
	})
	admit("html")
}

// record replays the flight recorder's fold of d's last run into into,
// which happens after the run span closes, inside the run request. With
// raw set (a durable server) it also replays the journal append that
// Record waited for.
func (rp *replayer) record(p *dashboard.Platform, d *dashboard.Dashboard, into *history.Recorder, raw *store.Dir) {
	if rp.err != nil {
		return
	}
	last, ok := p.History.LastRun(d.Name)
	if !ok {
		rp.err = fmt.Errorf("replay: no recorded run of %s", d.Name)
		return
	}
	rp.call("history.Recorder.Record", "history", "run", func() error {
		_, err := into.Record(&last)
		return err
	})
	if raw != nil {
		b, err := json.Marshal(last)
		if err != nil {
			rp.err = err
			return
		}
		rp.appendRecord(raw, "history", "history.Recorder.Record", len(b))
	}
}

// render replays GET /html.
func (rp *replayer) render(d *dashboard.Dashboard, host string) {
	rp.call("widget.RenderHTML", "widget", host, func() error { return d.RenderHTMLFor(dashboard.Desktop, io.Discard) })
}

// save replays PUT /dashboards/{name} on a durable server: parse,
// validate, commit (repo journals through the store, so the call returns
// after the fsync; the append is replayed again on its own), lint.
func (rp *replayer) save(p *dashboard.Platform, repo *vcs.Repo, raw *store.Dir, name, text string) {
	var f *flowfile.File
	rp.call("flowfile.Parse", "flowfile", "save", func() (err error) {
		f, err = flowfile.Parse(name, text)
		return err
	})
	rp.call("flowfile.Validate", "flowfile", "save", func() error { return f.Validate(true) })
	rp.call("vcs.Repo.Commit", "vcs", "save", func() error {
		_, err := repo.Commit(vcs.DefaultBranch, "replay", "save "+name, []byte(text))
		return err
	})
	rp.appendRecord(raw, "vcs", "vcs.Repo.Commit", len(text)+200)
	rp.call("analyze.LintWithFacts", "analyze", "save", func() error {
		analyze.LintWithFacts(f, analyzeOptions(p))
		return nil
	})
}

// appendRecord replays one journal append of the given payload size on
// a real directory: write, fsync, acknowledge.
func (rp *replayer) appendRecord(dir *store.Dir, component, host string, size int) {
	payload := make([]byte, size)
	rp.call("store.Dir.Append("+component+")", "store", host, func() error {
		return dir.Append(store.Record{Type: 1, Payload: payload})
	})
}

// jsonSize is the size of a table in the JSON row form the last-good
// cache journals.
func jsonSize(t *table.Table) int {
	b, err := connector.EncodeJSON(t)
	if err != nil {
		return 0
	}
	return len(b)
}
