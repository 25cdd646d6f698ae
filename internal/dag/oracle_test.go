package dag

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/task"
)

// The oracle: Resolve, its chain closure, node, topoSort, resolve and
// bind as they were before the graph was carved from per-resolve slabs,
// kept verbatim but for their names. They read nothing of the new code
// except task specs, so the one behaviour change below them — a join
// project source that names a column of both sides is a bind error, not
// the right side's column — reaches them through JoinSpec.Out.

func oracleResolve(f *flowfile.File, reg *task.Registry, shared SharedResolver) (*Graph, []*Problem) {
	g := &Graph{Nodes: map[string]*Node{}, File: f, Widgets: map[string]*Chain{}, BadTasks: map[string]*Problem{}}
	var problems []*Problem
	report := func(p *Problem) {
		if p != nil {
			problems = append(problems, p)
		}
	}
	specs, expand, errs := reg.Parse(f)
	for name, err := range errs {
		p := &Problem{Kind: ProblemBadConfig, Entity: "T." + name, Line: f.Tasks[name].Line, Err: err}
		if typ := f.Tasks[name].Type; typ != "parallel" && !slices.Contains(reg.Types(), typ) {
			p.Kind = ProblemUnknownType
		}
		g.BadTasks[name] = p
	}
	// chain resolves the references of a pipeline (what: "flow" or "widget
	// source", for the error), creating the nodes it reads.
	chain := func(p *flowfile.Pipeline, what string, line int) Chain {
		c := Chain{Inputs: make([]string, len(p.Inputs)), Specs: make([]task.Spec, 0, len(p.Tasks)), Stages: make([]Stage, 0, len(p.Tasks))}
		for i, in := range p.Inputs {
			g.oracleNode(in.Name)
			c.Inputs[i] = in.Name
		}
		for _, t := range p.Tasks {
			if _, ok := f.Tasks[t.Name]; !ok {
				c.Problem = &Problem{Kind: ProblemUndefinedTask, Entity: "T." + t.Name, Line: line, prefix: "dag: ",
					Err: fmt.Errorf("%s at line %d references undefined task T.%s", what, line, t.Name)}
			} else if c.Problem = g.BadTasks[t.Name]; c.Problem == nil {
				names := expand[t.Name] // a parallel stands for the tasks it expands to
				if names == nil {
					names = []string{t.Name}
				}
				for _, name := range names {
					c.Specs = append(c.Specs, specs[name])
					c.Stages = append(c.Stages, Stage{Name: name, Def: f.Tasks[name]})
				}
				continue
			}
			c.Specs, c.Stages = nil, nil
			break
		}
		return c
	}
	for _, name := range f.DataOrder {
		g.oracleNode(name)
	}
	for _, fl := range f.Flows {
		if fl.Pipeline == nil {
			continue // Validate rejects it
		}
		c := chain(fl.Pipeline, "flow", fl.Line)
		report(c.Problem)
		for i, out := range fl.Outputs {
			n := g.oracleNode(out.Name)
			if n.Flow != nil {
				report(&Problem{Kind: ProblemTwoProducers, Entity: "D." + out.Name, Line: fl.Line, prefix: "dag: data object D." + out.Name + " ",
					Err: fmt.Errorf("produced by two flows (lines %d and %d)", n.Flow.Line, fl.Line)})
				continue
			}
			n.Flow, n.Chain = fl, c
			if i > 0 {
				n.Stages = slices.Clone(c.Stages) // each output binds its own record
			}
		}
	}
	// A widget source is a consumer too: dead-sink elimination keeps its
	// feeds.
	for _, wname := range f.WidgetOrder {
		if w := f.Widgets[wname]; w.Source != nil {
			c := chain(w.Source, "widget source", w.Line)
			g.Widgets[wname] = &c
			for _, in := range c.Inputs {
				g.Nodes[in].Consumers = append(g.Nodes[in].Consumers, "widget:"+wname)
			}
		}
	}
	// names is every node in declaration order, undeclared ones (a widget
	// source's shared input) after, sorted: the order ties break on, which
	// keeps plans deterministic.
	names := slices.Clone(f.DataOrder)
	for name := range g.Nodes {
		if _, declared := f.Data[name]; !declared {
			names = append(names, name)
		}
	}
	sort.Strings(names[len(f.DataOrder):])
	for _, name := range names {
		for _, in := range g.Nodes[name].Inputs {
			g.Nodes[in].Consumers = append(g.Nodes[in].Consumers, name)
		}
	}
	report(g.oracleTopoSort(names))
	for _, name := range g.Order {
		report(g.oracleResolveNode(g.Nodes[name], shared))
	}
	for wname, c := range g.Widgets {
		if p := g.oracleBind(c); p != nil {
			p.prefix = "widget W." + wname + " source: " + p.prefix
			if p.Kind == ProblemFanIn {
				p.Entity, p.Line = "W."+wname, f.Widgets[wname].Line
			}
		}
	}
	return g, problems
}

// oracleNode returns the named node, creating it (with the file's definition,
// or an empty one) on first mention.
func (g *Graph) oracleNode(name string) *Node {
	n, ok := g.Nodes[name]
	if !ok {
		n = &Node{Name: name, Def: g.File.Data[name]}
		if n.Def == nil {
			n.Def = &flowfile.DataDef{Name: name}
		}
		g.Nodes[name] = n
	}
	return n
}

// oracleTopoSort orders nodes inputs-first (Kahn), ties in names order. Nodes
// on or behind a cycle are the returned problem; they end the order,
// unresolvable, so the dead-entity passes still see them.
func (g *Graph) oracleTopoSort(names []string) *Problem {
	indeg := make(map[string]int, len(names))
	var queue []string
	for _, name := range names {
		if indeg[name] = len(g.Nodes[name].Inputs); indeg[name] == 0 {
			queue = append(queue, name)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		g.Order = append(g.Order, cur)
		for _, c := range g.Nodes[cur].Consumers {
			if _, isNode := g.Nodes[c]; !isNode {
				continue // a widget
			}
			if indeg[c]--; indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(g.Order) == len(names) {
		return nil
	}
	var cyclic []string
	for _, name := range names {
		if indeg[name] > 0 {
			g.Order = append(g.Order, name)
			cyclic = append(cyclic, "D."+name)
		}
	}
	sort.Strings(cyclic)
	return &Problem{Kind: ProblemCycle, Entity: cyclic[0], Line: g.Nodes[cyclic[0][2:]].Def.Line, prefix: "dag: ",
		Err: fmt.Errorf("flows form a cycle through %s", strings.Join(cyclic, ", "))}
}

// oracleResolveNode computes one node's schema: declared for sources,
// shared-catalog for published inputs, and the bound pipeline's output
// for produced objects. A produced object with a declared schema is
// cross-checked — the declaration acts as an assertion, surfacing drift
// between the D section and the flows.
func (g *Graph) oracleResolveNode(n *Node, shared SharedResolver) *Problem {
	at := func(kind ProblemKind, prefix string, err error) *Problem {
		return &Problem{Kind: kind, Entity: "D." + n.Name, Line: n.Def.Line, prefix: prefix, Err: err}
	}
	if n.IsSource() {
		n.Schema = n.Def.Schema
		if n.Schema == nil && shared != nil {
			if s, ok := shared(n.Name); ok {
				n.Schema, n.Shared = s, true
			}
		}
		if n.Schema != nil {
			return nil
		}
		msg := "has no schema or producing flow"
		if shared != nil {
			msg = "has no schema, source, or shared publication"
		}
		return at(ProblemUnresolvable, "dag: data object D."+n.Name+" ", errors.New(msg))
	}
	if p := g.oracleBind(&n.Chain); p != nil {
		p.prefix = fmt.Sprintf("dag: flow for D.%s (line %d): ", n.Name, n.Flow.Line) + p.prefix
		if p.Kind == ProblemFanIn {
			p.Entity, p.Line = "D."+n.Name, n.Def.Line
		}
		return p
	}
	if n.Schema == nil || n.Def.Schema == nil || n.Def.Schema.Equal(n.Schema) {
		return nil
	}
	return at(ProblemSchemaDrift, "dag: D."+n.Name+" ", fmt.Errorf("declared schema %s but its flow produces %s", n.Def.Schema, n.Schema))
}

// oracleBind threads the chain's input schemas through its stages — the first
// stage receives all fan-in inputs, later ones the running intermediate —
// recording each stage's output and, when all bind, the chain's Schema.
// A chain with an unresolved input or a Problem already is left alone:
// its root cause is reported where it arose. A fan-in problem is the
// whole chain's: the caller names its owner.
func (g *Graph) oracleBind(c *Chain) *Problem {
	if c.Problem != nil {
		return nil
	}
	cur := make([]task.Input, len(c.Inputs))
	for i, in := range c.Inputs {
		if cur[i] = (task.Input{Name: in, Schema: g.Nodes[in].Schema}); cur[i].Schema == nil {
			return nil
		}
	}
	for k, sp := range c.Specs {
		out, err := sp.Out(cur)
		if err != nil {
			p := &Problem{Kind: ProblemBind, Entity: "T." + c.Stages[k].Name, Err: err,
				prefix: fmt.Sprintf("stage %d (%s): ", k+1, task.Describe(sp))}
			if def := c.Stages[k].Def; def != nil {
				p.Line = def.Line
			}
			var ce *schema.ColumnError
			if errors.As(err, &ce) {
				p.Kind, p.Column, p.InScope = ProblemMissingColumn, ce.Column, ce.Have
				if ce.Duplicate {
					p.Kind = ProblemDuplicateColumn
				}
			}
			c.Problem = p
			return p
		}
		c.Stages[k].Out = out
		cur = []task.Input{{Schema: out}}
	}
	if len(cur) != 1 {
		c.Problem = &Problem{Kind: ProblemFanIn, Err: fmt.Errorf("fan-in of %d inputs needs at least one task", len(cur))}
		return c.Problem
	}
	c.Schema = cur[0].Schema
	return nil
}

// fuzzSeeds are FuzzLint's seeds (internal/analyze): broken files of
// every kind the resolver reports.
var fuzzSeeds = []string{
	"D:\n  a: [x, y]\nF:\n  +D.o: D.a | T.t\nT:\n  t:\n    type: groupby\n    groupby: [x]\n",
	"F:\n  +D.o: (D.a, D.b) | T.t\n",
	"T:\n  t:\n    type: filter_by\n    filter_expression: a > 'b'\n",
	"W:\n  w:\n    type: Pie\n    source: D.a\n    text: x\n",
	"L:\n  rows:\n    - [span3: W.w]\n",
	"D.x:\n  source: 'a:b#c'\n  protocol: nope\n",
	"T:\n  t:\n    type: topn\n    groupby: [x]\n    limit: 5\n",
	"T:\n  p:\n    type: parallel\n    parallel: [T.p]\n",
	"D:\n  a: [x]\nF:\n  D.a: D.b | T.t\n  D.b: D.a | T.t\nT:\n  t:\n    type: distinct\n",
	"D:\n  a: [x]\n  o: [y]\nF:\n  +D.o: D.a | T.t\nT:\n  t:\n    type: distinct\n",
	"D:\n  a: [x]\n  b: [x]\nF:\n  +D.o: (D.a, D.b)\n",
}

// chainFlowN is a flow of n tasks, each producing the next data object.
func chainFlowN(n int) string {
	var b strings.Builder
	b.WriteString("D:\n  d0: [region, product, amount]\n\nD.d0:\n  source: data:sales.csv\n  format: csv\n\nF:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  D.d%d: D.d%d | T.t%d\n", i+1, i, i)
	}
	b.WriteString("\nT:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  t%d:\n    type: groupby\n    groupby: [region, product]\n    aggregates:\n", i)
		fmt.Fprintf(&b, "      - operator: sum\n        apply_on: amount\n        out_field: amount\n")
	}
	return b.String()
}

// benchFlow reads one of the benchmark-shaped flows in testdata: the
// authoring, refresh, hot and join dashboards.
func benchFlow(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name+".flow"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// resolveCorpus is what the oracle tests resolve: the fuzz seeds, the
// examples' and the differential suite's flows, the chain flows and the
// benchmark-shaped flows.
func resolveCorpus(t *testing.T) ([]string, *task.Registry) {
	texts, reg := flowTexts(t)
	inputs := append([]string{chainFlowN(9), chainFlowN(40)}, fuzzSeeds...)
	for _, name := range []string{"author", "refresh", "hot", "join"} {
		inputs = append(inputs, benchFlow(t, name))
	}
	for _, list := range texts {
		inputs = append(inputs, list...)
	}
	return inputs, reg
}

// sharedXY resolves every name that starts with "pub" as a published
// [x, y]: the shared-catalog path.
func sharedXY(name string) (*schema.Schema, bool) {
	return schema.MustFromNames("x", "y"), strings.HasPrefix(name, "pub")
}

// checkResolveMatchesOracle resolves f with Resolve and with the oracle
// and requires reflect.DeepEqual graphs and problems. Each resolve
// parses its own task specs, and a spec may hold a func (a case
// operator's), which DeepEqual never calls equal: the oracle's specs are
// checked to be the same parse (type and description) and then replaced
// by Resolve's, so everything else is compared as it is.
func checkResolveMatchesOracle(t *testing.T, f *flowfile.File, reg *task.Registry, shared SharedResolver) {
	t.Helper()
	got, gotProblems := Resolve(f, reg, shared)
	want, wantProblems := oracleResolve(f, reg, shared)
	var gc, wc []*Chain
	for name, n := range got.Nodes {
		if w := want.Nodes[name]; w != nil {
			gc, wc = append(gc, &n.Chain), append(wc, &w.Chain)
		}
	}
	for name, c := range got.Widgets {
		if w := want.Widgets[name]; w != nil {
			gc, wc = append(gc, c), append(wc, w)
		}
	}
	for i := range gc {
		if len(gc[i].Specs) != len(wc[i].Specs) {
			t.Fatalf("chain %v: %d specs, oracle's %d, for:\n%s", gc[i].Inputs, len(gc[i].Specs), len(wc[i].Specs), f)
		}
		for k, sp := range gc[i].Specs {
			if w := wc[i].Specs[k]; reflect.TypeOf(sp) != reflect.TypeOf(w) || task.Describe(sp) != task.Describe(w) {
				t.Fatalf("chain %v stage %d: spec %s, oracle's %s", gc[i].Inputs, k, task.Describe(sp), task.Describe(w))
			}
		}
		if wc[i].Specs != nil {
			wc[i].Specs = gc[i].Specs
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("graph\n%s\noracle's\n%s\nfor:\n%s", got, want, f)
	}
	if !reflect.DeepEqual(gotProblems, wantProblems) {
		t.Fatalf("problems %v, oracle's %v, for:\n%s", gotProblems, wantProblems, f)
	}
}

// TestResolveMatchesOracle holds Resolve to the oracle on every flow of
// the corpus that parses, without and with a shared catalog.
func TestResolveMatchesOracle(t *testing.T) {
	inputs, reg := resolveCorpus(t)
	n := 0
	for _, src := range inputs {
		f, err := flowfile.Parse("oracle", src)
		if err != nil {
			continue
		}
		n++
		checkResolveMatchesOracle(t, f, reg, nil)
		checkResolveMatchesOracle(t, f, reg, sharedXY)
	}
	t.Logf("compared %d flows", n)
	if n < 60 {
		t.Fatalf("compared %d flows, want at least 60", n)
	}
}
