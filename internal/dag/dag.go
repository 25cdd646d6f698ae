// Package dag builds and analyzes the directed acyclic graph a flow file
// implies.
//
// "On submission, the platform internally builds a directed acyclic graph
// (DAG) from the collection of flows specified by the user" (§3.4.2):
// users write only linear flows, but because sinks feed other flows,
// arbitrary transformation graphs arise. This package performs that
// assembly, detects cycles, topologically orders the graph, resolves
// every data object's schema (binding each task against its actual
// input — the compile-time check), and provides the optimizer passes the
// paper describes for the compilation service (§4.1, §6).
package dag

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/task"
)

// Node is one data object in the graph.
type Node struct {
	// Name is the data-object name.
	Name string
	// Def is the flow-file definition (never nil; possibly empty).
	Def *flowfile.DataDef
	// Flow is the producing flow, nil for source objects.
	Flow *flowfile.Flow
	// Chain is the producing flow's pipeline as resolved (Inputs, Specs,
	// Stages) and the object's resolved Schema; a source has only Schema.
	Chain
	// Shared is true when the object resolves from the platform catalog
	// rather than a local source or flow.
	Shared bool
	// Consumers are the names of nodes reading this object, plus the
	// pseudo-consumers "widget:<name>" for widget sources.
	Consumers []string
}

// Chain is one pipeline as the resolver bound it: a flow's, embedded in
// each Node it produces, or a widget source's (Graph.Widgets).
type Chain struct {
	// Inputs are the input object names.
	Inputs []string
	// Specs are the parsed task specs, in order; Stages names each one and
	// records what it bound to. Both are nil when a task is undefined or
	// misconfigured.
	Specs  []task.Spec
	Stages []Stage
	// Schema is the output schema; nil while an input is unresolved, a
	// stage did not bind or the chain has a Problem.
	Schema *schema.Schema
	// Problem is what is wrong with this chain itself (not its inputs).
	Problem *Problem
}

// Stage is one task reference of a chain.
type Stage struct {
	Name string
	Def  *flowfile.TaskDef
	// Out is the schema the stage produces, nil when it was not reached
	// or did not bind.
	Out *schema.Schema
}

// IsSource reports whether the node has no producing flow.
func (n *Node) IsSource() bool { return n.Flow == nil }

// ColumnarMode returns the node's `columnar:` data detail ("" when
// unset) — the per-object override of the batch engine's vectorized
// execution planner (auto, on or off).
func (n *Node) ColumnarMode() string {
	if n.Def == nil {
		return ""
	}
	return n.Def.Prop("columnar")
}

// Graph is the assembled, schema-resolved DAG.
type Graph struct {
	// Nodes maps data-object names to nodes.
	Nodes map[string]*Node
	// Order is a topological order of node names (inputs first); nodes on
	// or behind a cycle follow, unresolved.
	Order []string
	// File is the originating flow file.
	File *flowfile.File
	// Widgets maps widget names to their source pipelines, bound as
	// written.
	Widgets map[string]*Chain
	// BadTasks maps every T. definition that did not parse — referenced
	// or not — to why (ProblemUnknownType or ProblemBadConfig).
	BadTasks map[string]*Problem
}

// SharedResolver resolves a published data object's schema from the
// platform catalog; ok is false when the name is not published.
type SharedResolver func(name string) (*schema.Schema, bool)

// ProblemKind classifies a Problem, so reporters choose a rule without
// reading message text.
type ProblemKind string

// Problem kinds.
const (
	ProblemUndefinedTask   ProblemKind = "undefined-task"      // a pipeline names a task T has not
	ProblemUnknownType     ProblemKind = "unknown-type"        // a task's type is not registered
	ProblemBadConfig       ProblemKind = "bad-config"          // a task's parser rejected its configuration
	ProblemMissingColumn   ProblemKind = "missing-column"      // a stage reads a column its input lacks
	ProblemDuplicateColumn ProblemKind = "duplicate-column"    // a stage would produce a column twice
	ProblemBind            ProblemKind = "bind"                // a stage rejected its inputs otherwise
	ProblemTwoProducers    ProblemKind = "two-producers"       // two flows produce one object
	ProblemCycle           ProblemKind = "cycle"               // flows feed each other
	ProblemSchemaDrift     ProblemKind = "schema-drift"        // declared schema differs from the flow's
	ProblemFanIn           ProblemKind = "fan-in-without-task" // several inputs, no task to merge them
	ProblemUnresolvable    ProblemKind = "unresolvable"        // a source with no schema anywhere
)

// Problem is one reason a flow file does not resolve into a graph. As an
// error its text is the addressing Build has always printed followed by
// Err.
type Problem struct {
	Kind ProblemKind
	// Entity is the flow-file reference at fault ("T.keep", "D.sales",
	// "W.chart") and Line its declaring line.
	Entity string
	Line   int
	// Column is the missing or duplicated column and InScope the columns
	// the stage could see (the column kinds only).
	Column  string
	InScope []string
	// Err states the problem in the entity's own terms.
	Err    error
	prefix string
}

func (p *Problem) Error() string { return p.prefix + p.Err.Error() }
func (p *Problem) Unwrap() error { return p.Err }

// Build assembles and validates the graph for a flow file: Resolve, with
// the first problem as the error. reg resolves task types (including user
// extensions); shared resolves cross-dashboard published objects and may
// be nil for standalone files.
func Build(f *flowfile.File, reg *task.Registry, shared SharedResolver) (*Graph, error) {
	g, problems := Resolve(f, reg, shared)
	if len(problems) > 0 {
		return nil, problems[0]
	}
	return g, nil
}

// Resolve is the front end's one assembler: it parses every task
// definition once, attaches flows and widget sources to nodes, orders
// what can be ordered and binds every chain stage by stage. It keeps
// going past a failure — what depends on a failed chain stays unresolved,
// silently, its root cause being listed already — and returns the
// problems a run rejects the file for, in the order Build has always met
// them. What only lint reports (an unreferenced misconfigured task, a
// widget source that does not bind as written) is on the graph: BadTasks,
// Widgets[..].Problem.
func Resolve(f *flowfile.File, reg *task.Registry, shared SharedResolver) (*Graph, []*Problem) {
	g := &Graph{Nodes: map[string]*Node{}, File: f, Widgets: map[string]*Chain{}, BadTasks: map[string]*Problem{}}
	var problems []*Problem
	report := func(p *Problem) {
		if p != nil {
			problems = append(problems, p)
		}
	}
	specs, errs := reg.Parse(f)
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
			g.node(in.Name)
			c.Inputs[i] = in.Name
		}
		for _, t := range p.Tasks {
			if def, ok := f.Tasks[t.Name]; !ok {
				c.Problem = &Problem{Kind: ProblemUndefinedTask, Entity: "T." + t.Name, Line: line, prefix: "dag: ",
					Err: fmt.Errorf("%s at line %d references undefined task T.%s", what, line, t.Name)}
			} else if c.Problem = g.BadTasks[t.Name]; c.Problem == nil {
				c.Specs = append(c.Specs, specs[t.Name])
				c.Stages = append(c.Stages, Stage{Name: t.Name, Def: def})
				continue
			}
			c.Specs, c.Stages = nil, nil
			break
		}
		return c
	}
	for _, name := range f.DataOrder {
		g.node(name)
	}
	for _, fl := range f.Flows {
		if fl.Pipeline == nil {
			continue // Validate rejects it
		}
		c := chain(fl.Pipeline, "flow", fl.Line)
		report(c.Problem)
		for i, out := range fl.Outputs {
			n := g.node(out.Name)
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
	report(g.topoSort(names))
	for _, name := range g.Order {
		report(g.resolve(g.Nodes[name], shared))
	}
	for wname, c := range g.Widgets {
		if p := g.bind(c); p != nil {
			p.prefix = "widget W." + wname + " source: " + p.prefix
			if p.Kind == ProblemFanIn {
				p.Entity, p.Line = "W."+wname, f.Widgets[wname].Line
			}
		}
	}
	return g, problems
}

// node returns the named node, creating it (with the file's definition,
// or an empty one) on first mention.
func (g *Graph) node(name string) *Node {
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

// topoSort orders nodes inputs-first (Kahn), ties in names order. Nodes
// on or behind a cycle are the returned problem; they end the order,
// unresolvable, so the dead-entity passes still see them.
func (g *Graph) topoSort(names []string) *Problem {
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

// resolve computes one node's schema: declared for sources,
// shared-catalog for published inputs, and the bound pipeline's output
// for produced objects. A produced object with a declared schema is
// cross-checked — the declaration acts as an assertion, surfacing drift
// between the D section and the flows.
func (g *Graph) resolve(n *Node, shared SharedResolver) *Problem {
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
	if p := g.bind(&n.Chain); p != nil {
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

// bind threads the chain's input schemas through its stages — the first
// stage receives all fan-in inputs, later ones the running intermediate —
// recording each stage's output and, when all bind, the chain's Schema.
// A chain with an unresolved input or a Problem already is left alone:
// its root cause is reported where it arose. A fan-in problem is the
// whole chain's: the caller names its owner.
func (g *Graph) bind(c *Chain) *Problem {
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

// BindPipeline threads input schemas through a spec chain that is not
// the graph's own (a rearranged widget source), returning the final
// output schema.
func BindPipeline(g *Graph, inputs []string, specs []task.Spec) (*schema.Schema, error) {
	for _, in := range inputs {
		if g.Nodes[in].Schema == nil {
			return nil, fmt.Errorf("input D.%s has unresolved schema", in)
		}
	}
	c := Chain{Inputs: inputs, Specs: specs, Stages: make([]Stage, len(specs))}
	if p := g.bind(&c); p != nil {
		return nil, p
	}
	return c.Schema, nil
}

// Sources lists source-node names in topological order.
func (g *Graph) Sources() []string {
	var out []string
	for _, name := range g.Order {
		if g.Nodes[name].IsSource() {
			out = append(out, name)
		}
	}
	return out
}

// Endpoints lists endpoint data objects in topological order.
func (g *Graph) Endpoints() []string {
	var out []string
	for _, name := range g.Order {
		if g.Nodes[name].Def.Endpoint {
			out = append(out, name)
		}
	}
	return out
}

// Published lists nodes with a publish name, in topological order.
func (g *Graph) Published() []string {
	var out []string
	for _, name := range g.Order {
		if g.Nodes[name].Def.Publish != "" {
			out = append(out, name)
		}
	}
	return out
}

// String renders the graph for the plan view: one line per node with its
// producing pipeline.
func (g *Graph) String() string {
	var b strings.Builder
	for _, name := range g.Order {
		n := g.Nodes[name]
		switch {
		case n.IsSource() && n.Shared:
			fmt.Fprintf(&b, "D.%s  (shared) %s\n", name, n.Schema)
		case n.IsSource():
			fmt.Fprintf(&b, "D.%s  (source) %s\n", name, n.Schema)
		default:
			stages := make([]string, len(n.Specs))
			for i, sp := range n.Specs {
				stages[i] = task.Describe(sp)
			}
			fmt.Fprintf(&b, "D.%s  <- (%s) | %s\n", name, strings.Join(n.Inputs, ", "), strings.Join(stages, " | "))
		}
	}
	return b.String()
}
