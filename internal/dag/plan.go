package dag

import (
	"fmt"
	"sort"
	"strings"

	"shareinsights/internal/expr"
	"shareinsights/internal/task"
)

// Cost-based planning. Optimize turns a compiled graph plus whatever
// statistics exist — flight-recorder stage profiles from past runs,
// flowcheck facts when there is no history yet, heuristics when there is
// neither — into a Plan: per node, the spec order to execute, the
// resolved columnar mode, predicted paths and fusion, and negotiated
// source pushdown requests. The executor consults the plan instead of
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

// ColumnarAutoThreshold is the input cardinality below which the auto
// columnar planner keeps the row kernels. It lives here so the plan's
// path predictions and the batch engine's runtime decisions share one
// constant.
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
	// RowsIn / Rows are the observed input and output cardinalities.
	RowsIn    float64
	HasRowsIn bool
	Rows      float64
	HasRows   bool
	// CostUS is the observed stage duration baseline in microseconds.
	CostUS float64
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
	// Columnar is the executor's default columnar mode; a node's
	// `columnar:` detail overrides it.
	Columnar string
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
	// Path is the predicted execution path: "row", "columnar", or
	// "auto" when the runtime planner will decide on observed input
	// size. The actual path lands in StageTiming.Path.
	Path string `json:"path"`
	// Fused marks a stage predicted to fuse with its predecessor into
	// one sharded row-local pass.
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
	// Columnar is the resolved planner mode for the node.
	Columnar string `json:"columnar,omitempty"`
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
	seen := map[string]bool{}
	var rules []string
	for _, d := range np.Decisions {
		if !seen[d.Rule] {
			seen[d.Rule] = true
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
		np := &NodePlan{Output: name, Columnar: ResolveColumnar(n.ColumnarMode(), opts.Columnar)}
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
		np.Stages = stagePlans(name, specs, np.Columnar, opts)
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
func AsWritten(g *Graph, columnar string) *Plan {
	p := &Plan{Nodes: make(map[string]*NodePlan, len(g.Nodes)), Order: append([]string(nil), g.Order...)}
	for name, n := range g.Nodes {
		np := &NodePlan{Output: name, Source: n.IsSource()}
		if !np.Source {
			np.Specs = n.Specs
			np.Columnar = ResolveColumnar(n.ColumnarMode(), columnar)
		}
		p.Nodes[name] = np
	}
	return p
}

// ResolveColumnar resolves an effective columnar mode — the one place the
// mode string is interpreted: the node's `columnar:` detail, then the
// executor default, then auto. Unset or unrecognized values fall through
// (the flow-file validator rejects bad details before execution; this
// covers programmatic callers).
func ResolveColumnar(node, def string) string {
	for _, m := range []string{node, def} {
		switch m {
		case "auto", "on", "off":
			return m
		}
	}
	return "auto"
}

// isExprFilter reports whether sp is a pure expression filter — the only
// stage kind the planner reorders or pushes to sources. Interaction
// filters depend on live widget selections and are never moved.
func isExprFilter(sp task.Spec) bool {
	f, ok := sp.(*task.FilterSpec)
	return ok && f.Expression != "" && f.SourceWidget == ""
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

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
// execution paths and fusion — the explain view of one node.
func stagePlans(output string, specs []task.Spec, mode string, opts PlanOptions) []StagePlan {
	out := make([]StagePlan, len(specs))
	for i, sp := range specs {
		st := StagePlan{Stage: task.Describe(sp)}
		if isExprFilter(sp) {
			st.Selectivity, st.Evidence = estimate(output, sp, opts)
		}
		st.Path = predictPath(output, sp, mode, opts)
		out[i] = st
	}
	// Fusion: consecutive row-local stages fuse into one sharded pass
	// unless the columnar path takes a stage out of the run.
	for i := 1; i < len(specs); i++ {
		_, prevRL := specs[i-1].(task.RowLocal)
		_, curRL := specs[i].(task.RowLocal)
		if prevRL && curRL && out[i-1].Path != "columnar" && out[i].Path != "columnar" {
			out[i].Fused = true
		}
	}
	return out
}

// predictPath predicts a stage's execution path from the resolved mode,
// the spec's vectorizability (a single-input kernel, or the two-input
// join kernel) and the observed input cardinality. "auto" means the
// runtime planner decides (no statistics to predict from).
func predictPath(output string, sp task.Spec, mode string, opts PlanOptions) string {
	if mode == "off" {
		return "row"
	}
	_, one := sp.(task.Vectorizable)
	_, two := sp.(task.VectorizableJoin)
	if !one && !two {
		return "row"
	}
	if mode == "on" {
		return "columnar"
	}
	if opts.Stats != nil {
		if st, ok := opts.Stats(output, task.Describe(sp)); ok && st.HasRowsIn {
			if st.RowsIn >= ColumnarAutoThreshold {
				return "columnar"
			}
			return "row"
		}
	}
	return "auto"
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
		if ev != EvidenceHeuristic && sel < predicateGate && predicateCoversSchema(f.Expression, n) {
			pd.Predicate = f.Expression
			pd.Consumer = consumer
			pd.Selectivity = sel
			pd.Evidence = ev
			// The predicate's columns must be decoded to evaluate it.
			pd.SkipColumns = subtractCols(pd.SkipColumns, f.Expression)
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
	seen := map[string]bool{}
	name := ""
	for _, c := range n.Consumers {
		if strings.HasPrefix(c, "widget:") {
			return ""
		}
		if !seen[c] {
			seen[c] = true
			name = c
		}
	}
	if len(seen) != 1 {
		return ""
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
func predicateCoversSchema(src string, n *Node) bool {
	cols, err := expr.ReferencedColumns(src)
	if err != nil {
		return false
	}
	if n.Schema == nil {
		return false
	}
	for _, c := range cols {
		if !n.Schema.Has(c) {
			return false
		}
	}
	return true
}

// subtractCols removes the predicate's referenced columns from a
// skip-column list.
func subtractCols(cols []string, predicate string) []string {
	refs, err := expr.ReferencedColumns(predicate)
	if err != nil {
		return cols
	}
	needed := map[string]bool{}
	for _, c := range refs {
		needed[c] = true
	}
	out := cols[:0]
	for _, c := range cols {
		if !needed[c] {
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
		fmt.Fprintf(&b, "D.%s  columnar=%s\n", name, np.Columnar)
		for i, st := range np.Stages {
			fmt.Fprintf(&b, "  %d. %s", i+1, st.Stage)
			if st.Evidence != "" {
				fmt.Fprintf(&b, "  sel=%.2f [%s]", st.Selectivity, st.Evidence)
			}
			fmt.Fprintf(&b, "  path=%s", st.Path)
			if st.Fused {
				b.WriteString("  (fused with previous)")
			}
			b.WriteString("\n")
		}
		for _, d := range np.Decisions {
			fmt.Fprintf(&b, "  * %s: %s [%s]\n", d.Rule, d.Detail, d.Evidence)
		}
	}
	return b.String()
}
