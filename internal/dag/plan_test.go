package dag

import (
	"encoding/json"
	"strings"
	"testing"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/task"
)

// twoFilterFlow has two adjacent expression filters feeding a groupby —
// the reordering planner's canonical input.
const twoFilterFlow = `
D:
  raw: [region, amount, flag]

F:
  D.mid: D.raw | T.wide | T.narrow
  +D.out: D.mid | T.agg

T:
  wide:
    type: filter_by
    filter_expression: amount > 0
  narrow:
    type: filter_by
    filter_expression: flag == 1
  agg:
    type: groupby
    groupby: [region]
`

// statsOf builds a StatsFn over literal (output, stage) → selectivity
// entries, every entry marked as observed evidence.
func statsOf(m map[string]float64) StatsFn {
	return func(output, stage string) (StageStats, bool) {
		sel, ok := m[HintKey(output, stage)]
		if !ok {
			return StageStats{}, false
		}
		return StageStats{Selectivity: sel, HasSelectivity: true}, true
	}
}

func stageNames(np *NodePlan) []string {
	out := make([]string, len(np.Specs))
	for i, sp := range np.Specs {
		out[i] = task.Describe(sp)
	}
	return out
}

func TestReorderFiltersByObservedSelectivity(t *testing.T) {
	g := build(t, twoFilterFlow, nil)
	p := Optimize(g, PlanOptions{Stats: statsOf(map[string]float64{
		HintKey("mid", "filter_by amount > 0"): 0.9,
		HintKey("mid", "filter_by flag == 1"):  0.1,
	})})
	np := p.Node("mid")
	got := stageNames(np)
	if got[0] != "filter_by flag == 1" || got[1] != "filter_by amount > 0" {
		t.Fatalf("planned order = %v, want most selective filter first", got)
	}
	found := false
	for _, d := range np.Decisions {
		if d.Rule == RuleFilterReorder {
			found = true
			if d.Evidence != EvidenceHistory {
				t.Errorf("reorder evidence = %q, want history", d.Evidence)
			}
		}
	}
	if !found {
		t.Fatalf("no %s decision recorded: %+v", RuleFilterReorder, np.Decisions)
	}
	if np.Summary() != RuleFilterReorder {
		t.Errorf("Summary() = %q", np.Summary())
	}
}

func TestNoReorderWithoutEvidence(t *testing.T) {
	g := build(t, twoFilterFlow, nil)
	p := Optimize(g, PlanOptions{})
	got := stageNames(p.Node("mid"))
	if got[0] != "filter_by amount > 0" {
		t.Fatalf("heuristic-only plan reordered filters: %v", got)
	}
	if len(p.Node("mid").Decisions) != 0 {
		t.Errorf("decisions without evidence: %+v", p.Node("mid").Decisions)
	}
	if p.Node("mid").Summary() != "as-written" {
		t.Errorf("Summary() = %q, want as-written", p.Node("mid").Summary())
	}
}

func TestFactsHintsReorder(t *testing.T) {
	g := build(t, twoFilterFlow, nil)
	p := Optimize(g, PlanOptions{Hints: map[string]float64{
		HintKey("mid", "filter_by flag == 1"): 0, // provably false
	}})
	np := p.Node("mid")
	got := stageNames(np)
	if got[0] != "filter_by flag == 1" {
		t.Fatalf("facts hint did not reorder: %v", got)
	}
	for _, d := range np.Decisions {
		if d.Rule == RuleFilterReorder && d.Evidence != EvidenceFacts {
			t.Errorf("evidence = %q, want facts", d.Evidence)
		}
	}
}

// TestEmptyRunIsNoEvidence pins the satellite fix end to end at the
// planner: a stage observed only on empty input reports
// HasSelectivity=false, and the planner must fall through to the
// heuristic (no reorder) instead of treating "kept nothing of nothing"
// as selectivity evidence.
func TestEmptyRunIsNoEvidence(t *testing.T) {
	g := build(t, twoFilterFlow, nil)
	noEvidence := func(output, stage string) (StageStats, bool) {
		// What history.Profiles reports after an empty first run:
		// the profile exists but carries no selectivity samples.
		return StageStats{Selectivity: 0, HasSelectivity: false}, true
	}
	p := Optimize(g, PlanOptions{Stats: noEvidence})
	got := stageNames(p.Node("mid"))
	if got[0] != "filter_by amount > 0" {
		t.Fatalf("empty-run stats poisoned the order: %v", got)
	}
}

const pushdownFlow = `
D:
  raw: [region, amount, notes]

F:
  D.kept: D.raw | T.keep
  +D.out: D.kept | T.agg

T:
  keep:
    type: filter_by
    filter_expression: amount > 100
  agg:
    type: groupby
    groupby: [region]
`

// TestPredicatePushdownGates: however selective the evidence says a
// consumer's leading filter is, the filter runs in its pipeline and the
// source is offered nothing — whether the source feeds one consumer, is
// published, or feeds two.
func TestPredicatePushdownGates(t *testing.T) {
	stats := statsOf(map[string]float64{
		HintKey("kept", "filter_by amount > 100"): 0.05,
	})
	pub := pushdownFlow + `
D.raw:
  publish: everyone
`
	multi := strings.Replace(pushdownFlow, "+D.out: D.kept | T.agg",
		"+D.out: D.kept | T.agg\n  +D.out2: D.raw | T.agg", 1)
	for name, src := range map[string]string{"single": pushdownFlow, "published": pub, "multi": multi} {
		p := build(t, src, nil).mustPlan(t, stats)
		if pd := p.Node("raw").Pushdown; pd != nil {
			t.Errorf("%s: source offered %+v", name, pd)
		}
		if got := stageNames(p.Node("kept")); len(got) != 1 || got[0] != "filter_by amount > 100" {
			t.Errorf("%s: consumer runs %v", name, got)
		}
	}
}

// mustPlan is a tiny helper keeping gate tests readable.
func (g *Graph) mustPlan(t *testing.T, stats StatsFn) *Plan {
	t.Helper()
	return Optimize(g, PlanOptions{Stats: stats})
}

func TestProjectionPushdown(t *testing.T) {
	g := build(t, pushdownFlow, nil)
	p := Optimize(g, PlanOptions{
		DeadSourceColumns: map[string][]string{"raw": {"notes"}},
		Stats: statsOf(map[string]float64{
			HintKey("kept", "filter_by amount > 100"): 0.05,
		}),
	})
	pd := p.Node("raw").Pushdown
	if pd == nil || len(pd.SkipColumns) != 1 || pd.SkipColumns[0] != "notes" {
		t.Fatalf("dead column not skipped: %+v", pd)
	}
}

func TestInteractionFiltersNeverMove(t *testing.T) {
	src := `
D:
  raw: [region, amount]

W:
  pick:
    type: Grid
    source: D.raw | T.agg

F:
  +D.out: D.raw | T.w | T.keep

T:
  keep:
    type: filter_by
    filter_expression: amount > 0
  w:
    type: filter_by
    filter_by: [region]
    filter_source: W.pick
  agg:
    type: groupby
    groupby: [region]
`
	g := build(t, src, nil)
	p := Optimize(g, PlanOptions{Stats: statsOf(map[string]float64{
		HintKey("out", "filter_by amount > 0"): 0.01,
	})})
	got := stageNames(p.Node("out"))
	if !strings.HasPrefix(got[0], "filter_by region from W.pick") {
		t.Fatalf("interaction filter moved: %v", got)
	}
}

func TestPlanFormatAndJSON(t *testing.T) {
	g := build(t, twoFilterFlow, nil)
	p := Optimize(g, PlanOptions{Stats: statsOf(map[string]float64{
		HintKey("mid", "filter_by amount > 0"): 0.9,
		HintKey("mid", "filter_by flag == 1"):  0.1,
	})})
	text := p.Format()
	for _, want := range []string{"D.raw  (source)", "D.mid\n", "sel=0.10 [history]", "filter_reorder"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format() missing %q:\n%s", want, text)
		}
	}
	if text != p.Format() {
		t.Fatal("Format() not deterministic")
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var round Plan
	if err := json.Unmarshal(raw, &round); err != nil {
		t.Fatal(err)
	}
	if round.Nodes["mid"].Stages[0].Stage != "filter_by flag == 1" {
		t.Errorf("JSON round-trip lost stage order: %+v", round.Nodes["mid"].Stages)
	}
}

// TestStagePlansOverAnyInputs: explain asks task.Kernel about every
// node's stages, whatever the node's inputs. A three-input union plans,
// and a join whose build side has no schema (Resolve reports it and goes
// on) plans the filter after it fused, as over resolved sides: Kernel
// reads no schema.
func TestStagePlansOverAnyInputs(t *testing.T) {
	src := `D:
  a: [k, x]
  b: [k, x]
  c: [k, x]

F:
  +D.u: (D.a, D.b, D.c) | T.all
  +D.j: (D.a, D.r) | T.j | T.f

T:
  all:
    type: union
  j:
    type: join
    left: a by k
    right: r by k
    join_condition: inner
  f:
    type: filter_by
    filter_expression: a_x > 1
`
	f, err := flowfile.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	g, problems := Resolve(f, task.NewRegistry(), nil)
	if len(problems) != 1 || g.Nodes["r"].Schema != nil {
		t.Fatalf("want D.r unresolved and nothing else, got %v", problems)
	}
	p := Optimize(g, PlanOptions{})
	if st := p.Node("u").Stages; len(st) != 1 || st[0].Fused {
		t.Errorf("union: %+v", st)
	}
	if st := p.Node("j").Stages; len(st) != 2 || !st[1].Fused {
		t.Errorf("join over an unresolved side: %+v", st)
	}
}

func TestPlanSkippedSinks(t *testing.T) {
	src := strings.Replace(twoFilterFlow, "+D.out: D.mid | T.agg",
		"+D.out: D.mid | T.agg\n  D.unused: D.mid | T.agg", 1)
	g := build(t, src, nil)
	p := Optimize(g, PlanOptions{})
	if len(p.SkippedSinks) != 1 || p.SkippedSinks[0] != "unused" {
		t.Fatalf("SkippedSinks = %v", p.SkippedSinks)
	}
	if !strings.Contains(p.Format(), "D.unused  skipped") {
		t.Errorf("Format() missing skipped sink:\n%s", p.Format())
	}
}
