package dag

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"shareinsights/internal/task"
)

// Cost-based planning. Optimize turns a compiled graph plus whatever
// statistics exist — flight-recorder stage profiles from past runs,
// flowcheck facts when there is no history yet, heuristics when there is
// neither — into a Plan: per node, the spec order to execute, predicted
// paths, and negotiated source pushdown requests. The executor consults the plan instead of
// re-deriving rewrites per run, and the same Plan renders the `explain`
// surface (CLI, REST and golden tests), so what runs and what is shown
// are one object.
//
// Every rewrite is meaning-preserving for arbitrary statistics: filters
// commute with each other exactly (each row's membership is the
// conjunction of predicates and relative order is preserved), filter
// hoisting past maps rests on HoistFilters' column-disjointness proof,
// and a source pushdown only skips columns no reader reads, so a
// connector that declines it never changes the result. The enginetest
// differential harness asserts this cell-for-cell against adversarial
// random statistics.

// ColumnarAutoThreshold is the input cardinality below which the
// retired auto mode kept the row kernels. Neither the planner nor the
// engine reads it: its one reader is bench/replay.go, until ROADMAP item
// 24 deletes the replayer.
const ColumnarAutoThreshold = 256

// Evidence sources for a planning decision, strongest first.
const (
	// EvidenceHistory marks statistics observed by the flight recorder.
	EvidenceHistory = "history"
	// EvidenceFacts marks statically proven flowcheck facts.
	EvidenceFacts = "facts"
	// EvidenceHeuristic marks built-in defaults (no statistics).
	EvidenceHeuristic = "heuristic"
)

// Rewrite rules a Decision can record.
const (
	// RuleFilterPushdown hoists expression filters ahead of commuting
	// maps (the FL050 advisory, applied).
	RuleFilterPushdown = "filter_pushdown"
	// RuleFilterReorder orders adjacent expression filters by estimated
	// selectivity, cheapest-to-discard first.
	RuleFilterReorder = "filter_reorder"
	// RuleProjectionToSource skips decoding of fetched-but-never-read
	// source columns (flowcheck's dead-column liveness).
	RuleProjectionToSource = "projection_to_source"
)

// StageStats is one stage's observed statistics, as the planner's
// StatsFn reports them.
type StageStats struct {
	// Selectivity is the observed rows-out / rows-in ratio;
	// HasSelectivity is false when no non-empty input was ever observed
	// (an empty run is no evidence — see history.StageProfile).
	Selectivity    float64
	HasSelectivity bool
}

// StatsFn resolves observed statistics for a (output object, stage
// description) pair; ok is false when the stage was never observed.
type StatsFn func(output, stage string) (StageStats, bool)

// HintKey builds the PlanOptions.Hints key for a stage.
func HintKey(output, stage string) string { return output + "\x00" + stage }

// PlanOptions carries the planner's statistics feeds. The dag package
// depends on neither the flight recorder nor flowcheck; callers adapt
// both into these neutral shapes (dashboard does).
type PlanOptions struct {
	// Stats resolves observed per-stage statistics (flight recorder).
	// nil means no history.
	Stats StatsFn
	// Hints maps HintKey(output, stage) to a statically derived
	// selectivity estimate (flowcheck verdicts and intervals).
	Hints map[string]float64
	// DeadSourceColumns maps source names to columns that are fetched
	// but provably never read (flowcheck liveness) — projection
	// pushdown input.
	DeadSourceColumns map[string][]string
}

// Decision is one rewrite the planner applied, with its evidence.
type Decision struct {
	Rule     string `json:"rule"`
	Detail   string `json:"detail"`
	Evidence string `json:"evidence"`
}

// StagePlan describes one planned pipeline stage.
type StagePlan struct {
	// Stage is the task description (task.Describe).
	Stage string `json:"stage"`
	// Selectivity and Evidence are set for expression filters: the
	// estimate that ranked the stage and where it came from.
	Selectivity float64 `json:"selectivity,omitempty"`
	Evidence    string  `json:"evidence,omitempty"`
	// Path is the predicted execution path, "row" or "columnar", by
	// task.Kernel. The actual path lands in StageTiming.Path.
	Path string `json:"path"`
	// Fused marks a stage that task.Kernel runs inside the kernel call
	// of the stage before it; its Path is that stage's.
	Fused bool `json:"fused,omitempty"`
	// Inline marks a stage that runs in an inline node's fan: each of the
	// node's stages, and the first stage of each of its consumers.
	Inline bool `json:"inline,omitempty"`
}

// SourcePushdown is a negotiated fetch-time rewrite request for a
// source. A connector may decline it: no reader reads the skipped
// columns, so declining never changes a result.
type SourcePushdown struct {
	// SkipColumns are declared columns whose values need not be decoded
	// (statically dead); decoded tables carry nulls there, schema
	// unchanged.
	SkipColumns []string `json:"skip_columns,omitempty"`
}

// NodePlan is the plan for one data object.
type NodePlan struct {
	Output string `json:"output"`
	// Source marks source nodes (no pipeline; may carry a Pushdown).
	Source bool `json:"source,omitempty"`
	// Specs is the planned spec order the executor runs (produced nodes).
	Specs []task.Spec `json:"-"`
	// Stages render Specs for the explain surface.
	Stages []StagePlan `json:"stages,omitempty"`
	// Pushdown is the fetch-time request for source nodes (nil = none).
	Pushdown *SourcePushdown `json:"pushdown,omitempty"`
	// Decisions are the rewrites applied to this node.
	Decisions []Decision `json:"decisions,omitempty"`
	// Inline marks a produced node that is never built: its chain runs a
	// morsel at a time into its consumers' first groups (see inline).
	Inline bool `json:"inline,omitempty"`
}

// Plan is a full optimized execution plan for a graph.
type Plan struct {
	Nodes map[string]*NodePlan `json:"nodes"`
	// Order mirrors the graph's topological order.
	Order []string `json:"order"`
	// SkippedSinks are dead sinks the executor will not run.
	SkippedSinks []string `json:"skipped_sinks,omitempty"`
}

// Node returns the plan for one data object (nil when absent).
func (p *Plan) Node(name string) *NodePlan {
	if p == nil {
		return nil
	}
	return p.Nodes[name]
}

// Summary compresses a node's plan into the short tag carried on stage
// timings and history records: the applied rule names, or "as-written".
func (np *NodePlan) Summary() string {
	if np == nil {
		return ""
	}
	var rules []string
	for _, d := range np.Decisions {
		if !slices.Contains(rules, d.Rule) {
			rules = append(rules, d.Rule)
		}
	}
	if len(rules) == 0 {
		return "as-written"
	}
	return strings.Join(rules, "+")
}

// Optimize plans the graph against the supplied statistics. The result
// is deterministic for fixed inputs: ties keep declaration order, so
// golden plans are stable.
func Optimize(g *Graph, opts PlanOptions) *Plan {
	p := &Plan{Nodes: make(map[string]*NodePlan, len(g.Nodes)), Order: append([]string(nil), g.Order...)}
	p.SkippedSinks = g.DeadSinks()
	// Produced nodes first: inline reads its consumers' planned spec
	// order.
	for _, name := range g.Order {
		n := g.Nodes[name]
		if n.IsSource() {
			continue
		}
		np := &NodePlan{Output: name}
		hoist := HoistFilters(n.Specs)
		if hoist.Moved {
			np.Decisions = append(np.Decisions, Decision{
				Rule:     RuleFilterPushdown,
				Detail:   "hoisted expression filters ahead of maps that do not produce their columns",
				Evidence: EvidenceHeuristic,
			})
		}
		specs, reorder := reorderFilters(name, hoist.Specs, opts)
		if reorder != nil {
			np.Decisions = append(np.Decisions, *reorder)
		}
		np.Specs = specs
		np.Stages = stagePlans(name, specs, len(n.Inputs), opts)
		p.Nodes[name] = np
	}
	for _, name := range g.Order {
		n := g.Nodes[name]
		if !n.IsSource() {
			if np := p.Nodes[name]; inline(g, n, p.Nodes) {
				np.Inline = true
				for i := range np.Stages {
					np.Stages[i].Inline, np.Stages[i].Fused = true, false
				}
				for _, c := range n.Consumers {
					p.Nodes[c].Stages[0].Inline = true
				}
			}
			continue
		}
		np := &NodePlan{Output: name, Source: true}
		if !n.Shared {
			np.Pushdown, np.Decisions = sourcePushdown(n, opts)
		}
		p.Nodes[name] = np
	}
	return p
}

// AsWritten is the identity plan — what "optimizer off" means: every
// produced node runs its specs as declared, no sink is skipped and no
// source is offered a pushdown. It carries no Stages or Decisions; it is
// executed, never explained.
func AsWritten(g *Graph) *Plan {
	p := &Plan{Nodes: make(map[string]*NodePlan, len(g.Nodes)), Order: append([]string(nil), g.Order...)}
	for name, n := range g.Nodes {
		np := &NodePlan{Output: name, Source: n.IsSource()}
		if !np.Source {
			np.Specs = n.Specs
		}
		p.Nodes[name] = np
	}
	return p
}

// inline is the one rule for which nodes run inline, and explain and the
// batch engine both read it off the plan. n has no data detail
// (endpoint, publish, cache, max_rows, …), and its planned chain is steps
// only, one run task.Kernel takes whole, with no sink, over either:
//   - one input; or
//   - two, as a join whose probe side is an inline node: the probe side's
//     run then runs n's chain too, and feeds n's consumers in its place.
//
// Every consumer's first planned group is over n alone and ends in a sink
// (a sink, or row-local steps and then a sink), or, for n's only consumer
// when n has one input, a join n feeds as the probe side. n's chain then
// runs a morsel at a time into each consumer's first group, so nothing
// stores its rows in between; a probe's build side is another input of
// n's one consumer, so it never waits on n. So only a probed join may be
// the inline consumer of an inline node: its other consumers' groups end
// in a sink.
func inline(g *Graph, n *Node, plans map[string]*NodePlan) bool {
	specs := plans[n.Name].Specs
	if n.Def.Endpoint || n.Def.Publish != "" || len(n.Def.Props) > 0 || len(specs) == 0 || len(n.Consumers) == 0 {
		return false
	}
	switch len(n.Inputs) {
	case 1:
	case 2:
		if !slices.ContainsFunc(n.Inputs, func(in string) bool { return plans[in] != nil && plans[in].Inline && task.Probes(specs[0], in) }) {
			return false
		}
	default:
		return false
	}
	if task.Kernel(specs, len(n.Inputs)) != len(specs) || slices.ContainsFunc(specs, task.Sink) {
		return false
	}
	for _, c := range n.Consumers {
		cn, cp := g.Nodes[c], plans[c]
		if cn == nil || cp == nil || len(cp.Specs) == 0 {
			return false
		}
		switch {
		case len(cn.Inputs) == 1 && slices.ContainsFunc(cp.Specs[:task.Kernel(cp.Specs, 1)], task.Sink):
		case len(n.Inputs) == 1 && len(cn.Inputs) == 2 && len(n.Consumers) == 1 && cn.Inputs[0] != cn.Inputs[1] && task.Probes(cp.Specs[0], n.Name):
		default:
			return false
		}
	}
	return true
}

// isExprFilter reports whether sp is a pure expression filter — the only
// stage kind the planner reorders. Interaction
// filters depend on live widget selections and are never moved.
func isExprFilter(sp task.Spec) bool {
	f, ok := sp.(*task.FilterSpec)
	return ok && f.Expr != nil && f.SourceWidget == ""
}

func clamp01(v float64) float64 { return min(max(v, 0), 1) }

// estimate resolves a filter stage's selectivity with its evidence
// chain: observed history, then static facts, then the 0.5 heuristic.
func estimate(output string, sp task.Spec, opts PlanOptions) (float64, string) {
	desc := task.Describe(sp)
	if opts.Stats != nil {
		if st, ok := opts.Stats(output, desc); ok && st.HasSelectivity {
			return clamp01(st.Selectivity), EvidenceHistory
		}
	}
	if opts.Hints != nil {
		if h, ok := opts.Hints[HintKey(output, desc)]; ok {
			return clamp01(h), EvidenceFacts
		}
	}
	return 0.5, EvidenceHeuristic
}

// reorderFilters stable-sorts each maximal run of adjacent expression
// filters by estimated selectivity, most selective first — the
// cheapest-to-discard ordering. Filters commute exactly (conjunction;
// relative row order preserved), so this is sound for any estimates;
// the estimates only decide how fast it runs. Ties keep written order,
// so with uniform heuristics the plan equals the flow as written.
func reorderFilters(output string, specs []task.Spec, opts PlanOptions) ([]task.Spec, *Decision) {
	out := append([]task.Spec(nil), specs...)
	changed := false
	evidence := EvidenceHeuristic
	var detail []string
	for i := 0; i < len(out); {
		if !isExprFilter(out[i]) {
			i++
			continue
		}
		j := i
		for j < len(out) && isExprFilter(out[j]) {
			j++
		}
		if j-i >= 2 {
			type ranked struct {
				sp   task.Spec
				sel  float64
				ev   string
				orig int
			}
			run := make([]ranked, j-i)
			for k := 0; k < j-i; k++ {
				sel, ev := estimate(output, out[i+k], opts)
				run[k] = ranked{out[i+k], sel, ev, k}
			}
			sort.SliceStable(run, func(a, b int) bool { return run[a].sel < run[b].sel })
			for k, r := range run {
				if r.orig != k {
					changed = true
				}
				if r.ev == EvidenceHistory {
					evidence = EvidenceHistory
				} else if r.ev == EvidenceFacts && evidence != EvidenceHistory {
					evidence = EvidenceFacts
				}
				out[i+k] = r.sp
				detail = append(detail, fmt.Sprintf("%s sel=%.2f", task.Describe(r.sp), r.sel))
			}
		}
		i = j
	}
	if !changed {
		return out, nil
	}
	return out, &Decision{
		Rule:     RuleFilterReorder,
		Detail:   "ordered adjacent filters by estimated selectivity: " + strings.Join(detail, ", "),
		Evidence: evidence,
	}
}

// stagePlans renders the planned specs with predicted selectivities,
// execution paths and fusion — the explain view of one node. It walks
// the chain by task.Kernel, the rule the batch engine runs by: the first
// stage has the node's inputs, and every later stage has one.
func stagePlans(output string, specs []task.Spec, inputs int, opts PlanOptions) []StagePlan {
	out := make([]StagePlan, len(specs))
	group := 0 // stages left in the current kernel call
	for i, sp := range specs {
		st := StagePlan{Stage: task.Describe(sp), Path: "row", Fused: group > 0}
		if isExprFilter(sp) {
			st.Selectivity, st.Evidence = estimate(output, sp, opts)
		}
		if group == 0 {
			group = task.Kernel(specs[i:], inputs)
		}
		if group > 0 {
			st.Path = "columnar"
			group--
		}
		out[i], inputs = st, 1
	}
	return out
}

// sourcePushdown decides a source's fetch-time rewrite: projection from
// static liveness. It applies regardless of fan-out or endpoint status:
// flowcheck's liveness already accounts for every reader, widgets and
// endpoints included.
func sourcePushdown(n *Node, opts PlanOptions) (*SourcePushdown, []Decision) {
	dead := opts.DeadSourceColumns[n.Name]
	if len(dead) == 0 {
		return nil, nil
	}
	pd := &SourcePushdown{SkipColumns: append([]string(nil), dead...)}
	sort.Strings(pd.SkipColumns)
	return pd, []Decision{{
		Rule:     RuleProjectionToSource,
		Detail:   "skip decoding never-read columns: " + strings.Join(pd.SkipColumns, ", "),
		Evidence: EvidenceFacts,
	}}
}

// Format renders the plan as the deterministic text of `shareinsights
// explain`: one block per node in topological order, with stages,
// estimates, predicted paths and the decisions that shaped them.
func (p *Plan) Format() string {
	skipped := map[string]bool{}
	for _, s := range p.SkippedSinks {
		skipped[s] = true
	}
	var b strings.Builder
	for _, name := range p.Order {
		np := p.Nodes[name]
		if np == nil {
			continue
		}
		if skipped[name] {
			fmt.Fprintf(&b, "D.%s  skipped (dead sink: nothing consumes it)\n", name)
			continue
		}
		if np.Source {
			fmt.Fprintf(&b, "D.%s  (source)\n", name)
			if pd := np.Pushdown; pd != nil {
				fmt.Fprintf(&b, "  pushdown skip columns: %s\n", strings.Join(pd.SkipColumns, ", "))
			}
			for _, d := range np.Decisions {
				fmt.Fprintf(&b, "  * %s: %s [%s]\n", d.Rule, d.Detail, d.Evidence)
			}
			continue
		}
		fmt.Fprintf(&b, "D.%s\n", name)
		for i, st := range np.Stages {
			fmt.Fprintf(&b, "  %d. %s", i+1, st.Stage)
			if st.Evidence != "" {
				fmt.Fprintf(&b, "  sel=%.2f [%s]", st.Selectivity, st.Evidence)
			}
			fmt.Fprintf(&b, "  path=%s", st.Path)
			if st.Fused {
				b.WriteString(" fused")
			}
			if st.Inline {
				b.WriteString(" inline")
			}
			b.WriteByte('\n')
		}
		for _, d := range np.Decisions {
			fmt.Fprintf(&b, "  * %s: %s [%s]\n", d.Rule, d.Detail, d.Evidence)
		}
	}
	return b.String()
}
