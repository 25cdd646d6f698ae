package dag

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"shareinsights/internal/expr"
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
// and source predicates are re-applied by the consuming pipeline, so a
// connector that declines or half-applies a pushdown never changes the
// result. The enginetest differential harness asserts this cell-for-cell
// against adversarial random statistics.

// ColumnarAutoThreshold is the input cardinality below which the
// retired auto mode kept the row kernels. Neither the planner nor the
// engine reads it: its one reader is bench/replay.go, until ROADMAP item
// 1(a)(i) replays stages through the engine's own stage runner.
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
	// RulePredicateToSource pushes a consumer's leading filter into the
	// source fetch so non-matching rows are never decoded.
	RulePredicateToSource = "predicate_to_source"
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
	// Path is the predicted execution path, "row" or "columnar", read
	// off the task's kernel (predictPath). The actual path lands in
	// StageTiming.Path.
	Path string `json:"path"`
	// Fused marks a stage that runs inside the kernel call of the stage
	// before it whenever that stage runs columnar (task.Fuses); its Path
	// is that stage's.
	Fused bool `json:"fused,omitempty"`
}

// SourcePushdown is a negotiated fetch-time rewrite request for a
// source. Connectors may decline any part of it; the consuming pipeline
// re-applies the predicate, so partial application is always sound.
type SourcePushdown struct {
	// Predicate is the filter expression to apply while decoding ("" =
	// none). Consumer names the data object whose leading filter the
	// predicate came from: when a connector reports the predicate
	// applied, that filter's observed selectivity is an artifact of the
	// pushdown (≈1.0) and must not be recorded as evidence.
	Predicate string `json:"predicate,omitempty"`
	Consumer  string `json:"consumer,omitempty"`
	// Selectivity and Evidence justify the predicate push.
	Selectivity float64 `json:"selectivity,omitempty"`
	Evidence    string  `json:"evidence,omitempty"`
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
	skip := map[string]bool{}
	for _, s := range p.SkippedSinks {
		skip[s] = true
	}
	// Produced nodes first: source pushdown needs the consumers' planned
	// spec order.
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
		var in [2]task.Input
		nIn := min(len(n.Inputs), len(in))
		for i, src := range n.Inputs[:nIn] {
			in[i] = task.Input{Name: src, Schema: g.Nodes[src].Schema}
		}
		np.Specs = specs
		np.Stages = stagePlans(name, specs, in[:nIn], opts)
		p.Nodes[name] = np
	}
	for _, name := range g.Order {
		n := g.Nodes[name]
		if !n.IsSource() {
			continue
		}
		np := &NodePlan{Output: name, Source: true}
		if !n.Shared {
			np.Pushdown, np.Decisions = sourcePushdown(g, n, p.Nodes, skip, opts)
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

// isExprFilter reports whether sp is a pure expression filter — the only
// stage kind the planner reorders or pushes to sources. Interaction
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
// execution paths and fusion — the explain view of one node. in holds
// the node's first two inputs, all that a fusing join reads.
func stagePlans(output string, specs []task.Spec, in []task.Input, opts PlanOptions) []StagePlan {
	out := make([]StagePlan, len(specs))
	for i, sp := range specs {
		st := StagePlan{Stage: task.Describe(sp)}
		if isExprFilter(sp) {
			st.Selectivity, st.Evidence = estimate(output, sp, opts)
		}
		st.Path = predictPath(sp)
		if i > 0 && out[i-1].Path != "row" && task.Fuses(specs[i-1], sp, in) {
			st.Path, st.Fused = out[i-1].Path, true
		}
		out[i] = st
	}
	return out
}

// predictPath predicts a stage's execution path by the batch engine's
// rule: columnar when the spec is a kernel type whose configuration has a
// kernel (task.HasKernel), row otherwise. Over any stage of a built graph
// that is exactly when task.Bind binds, so the prediction fails only on
// data: an input holding a boxed or time column runs on rows.
func predictPath(sp task.Spec) string {
	_, one := sp.(task.Vectorizable)
	_, two := sp.(task.VectorizableJoin)
	if (one || two) && task.HasKernel(sp) {
		return "columnar"
	}
	return "row"
}

// predicateGate is the selectivity above which pushing a predicate into
// the fetch is not worth re-shaping the decode: most rows survive, so
// decode-time filtering saves little. Below it, the fetch provably
// drops enough rows to pay off. Requiring real evidence (history or
// facts) means the very first run of a flow never pushes — the second
// run does, because the first was measured.
const predicateGate = 0.75

// sourcePushdown decides a source's fetch-time rewrite: projection from
// static liveness, predicate from the single consumer's leading filter
// when the evidence says it is selective.
func sourcePushdown(g *Graph, n *Node, plans map[string]*NodePlan, skip map[string]bool, opts PlanOptions) (*SourcePushdown, []Decision) {
	pd := &SourcePushdown{}
	var decisions []Decision
	// Projection applies regardless of fan-out or endpoint status:
	// flowcheck's liveness already accounts for every reader, widgets
	// and endpoints included.
	if dead := opts.DeadSourceColumns[n.Name]; len(dead) > 0 {
		pd.SkipColumns = append([]string(nil), dead...)
		sort.Strings(pd.SkipColumns)
	}
	// Predicate pushdown: the source must feed exactly one pipeline (no
	// widgets, not an endpoint, not published — every other reader sees
	// unfiltered rows), and that pipeline's planned first stage must be
	// an expression filter with evidence it is selective.
	if f := pushableFilter(g, n, plans, skip); f != nil {
		consumer := uniqueConsumer(n)
		sel, ev := estimate(consumer, f, opts)
		if ev != EvidenceHeuristic && sel < predicateGate && predicateCoversSchema(f.Expr, n) {
			pd.Predicate = f.Expression
			pd.Consumer = consumer
			pd.Selectivity = sel
			pd.Evidence = ev
			// The predicate's columns must be decoded to evaluate it.
			pd.SkipColumns = subtractCols(pd.SkipColumns, f.Expr)
			decisions = append(decisions, Decision{
				Rule:     RulePredicateToSource,
				Detail:   fmt.Sprintf("filter (%s) of D.%s applied during fetch (sel=%.2f)", f.Expression, consumer, sel),
				Evidence: ev,
			})
		}
	}
	if len(pd.SkipColumns) > 0 {
		decisions = append(decisions, Decision{
			Rule:     RuleProjectionToSource,
			Detail:   "skip decoding never-read columns: " + strings.Join(pd.SkipColumns, ", "),
			Evidence: EvidenceFacts,
		})
	}
	if pd.Predicate == "" && len(pd.SkipColumns) == 0 {
		return nil, decisions
	}
	return pd, decisions
}

// uniqueConsumer returns the single non-widget consumer name, or "".
func uniqueConsumer(n *Node) string {
	name := ""
	for _, c := range n.Consumers {
		if strings.HasPrefix(c, "widget:") || (name != "" && c != name) {
			return ""
		}
		name = c
	}
	return name
}

// pushableFilter returns the leading expression filter of the source's
// single consumer, when the graph shape allows pushing it.
func pushableFilter(g *Graph, n *Node, plans map[string]*NodePlan, skip map[string]bool) *task.FilterSpec {
	if n.Def.Endpoint || n.Def.Publish != "" {
		return nil
	}
	cname := uniqueConsumer(n)
	if cname == "" || skip[cname] {
		return nil
	}
	consumer := g.Nodes[cname]
	if consumer == nil || len(consumer.Inputs) != 1 || consumer.Inputs[0] != n.Name {
		return nil
	}
	np := plans[cname]
	if np == nil || len(np.Specs) == 0 || !isExprFilter(np.Specs[0]) {
		return nil
	}
	return np.Specs[0].(*task.FilterSpec)
}

// predicateCoversSchema verifies every column the predicate reads is a
// declared source column (it binds first in the consumer, so this holds
// by construction; the check guards programmatic callers).
func predicateCoversSchema(pred expr.Node, n *Node) bool {
	if n.Schema == nil {
		return false
	}
	for _, c := range expr.Columns(pred) {
		if !n.Schema.Has(c) {
			return false
		}
	}
	return true
}

// subtractCols removes the predicate's referenced columns from a
// skip-column list.
func subtractCols(cols []string, predicate expr.Node) []string {
	needed := expr.Columns(predicate)
	out := cols[:0]
	for _, c := range cols {
		if !slices.Contains(needed, c) {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
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
				if pd.Predicate != "" {
					fmt.Fprintf(&b, "  pushdown predicate: (%s)  sel=%.2f [%s]\n", pd.Predicate, pd.Selectivity, pd.Evidence)
				}
				if len(pd.SkipColumns) > 0 {
					fmt.Fprintf(&b, "  pushdown skip columns: %s\n", strings.Join(pd.SkipColumns, ", "))
				}
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
			b.WriteByte('\n')
		}
		for _, d := range np.Decisions {
			fmt.Fprintf(&b, "  * %s: %s [%s]\n", d.Rule, d.Detail, d.Evidence)
		}
	}
	return b.String()
}
