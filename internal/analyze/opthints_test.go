package analyze

import (
	"testing"

	"shareinsights/internal/dag"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/task"
)

func hintsSrc(t *testing.T, src string) Hints {
	t.Helper()
	f, err := flowfile.Parse("demo", src)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := dag.Resolve(f, task.NewRegistry(), nil)
	return Analyze(g, nil).Hints()
}

func TestOptimizerHintsConstantFilters(t *testing.T) {
	h := hintsSrc(t, `
D:
  src: [region, amount]
D.src:
  source: mem:src.csv
F:
  +D.none: D.src | T.nothing
  +D.all: D.src | T.everything
T:
  nothing:
    type: filter_by
    filter_expression: 1 > 2
  everything:
    type: filter_by
    filter_expression: 1 == 1 or region == 'east'
`)
	if got, ok := h.Selectivity[dag.HintKey("none", "filter_by 1 > 2")]; !ok || got != 0 {
		t.Fatalf("always_false hint = %v (present=%v), want 0", got, ok)
	}
	if got, ok := h.Selectivity[dag.HintKey("all", "filter_by 1 == 1 or region == 'east'")]; !ok || got != 1 {
		t.Fatalf("always_true hint = %v (present=%v), want 1", got, ok)
	}
	if len(h.Selectivity) != 2 {
		t.Fatalf("unprovable stages leaked hints: %v", h.Selectivity)
	}
}

func TestOptimizerHintsDeadSourceColumns(t *testing.T) {
	h := hintsSrc(t, `
D:
  src: [region, amount, notes, extra]
D.src:
  source: mem:src.csv
F:
  +D.out: D.src | T.agg
T:
  agg:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
`)
	dead := h.DeadSourceColumns["src"]
	if len(dead) != 2 || dead[0] != "extra" || dead[1] != "notes" {
		t.Fatalf("DeadSourceColumns = %v, want [extra notes] sorted", dead)
	}
	// The hints drop straight into planner options.
	opts := h.PlanOptions(nil)
	if len(opts.DeadSourceColumns["src"]) != 2 || opts.Hints == nil {
		t.Fatalf("PlanOptions lost the hints: %+v", opts)
	}
}

// TestOptimizerHintsFeedPlanner wires the static hints end to end: a
// provably-false filter reorders ahead of an unprovable one with facts
// evidence, with no run history at all.
func TestOptimizerHintsFeedPlanner(t *testing.T) {
	const src = `
D:
  raw: [region, amount, flag]
D.raw:
  source: mem:raw.csv
F:
  D.mid: D.raw | T.wide | T.narrow
  +D.out: D.mid | T.agg
T:
  wide:
    type: filter_by
    filter_expression: amount > 0
  narrow:
    type: filter_by
    filter_expression: 1 > 2
  agg:
    type: groupby
    groupby: [region]
`
	f, err := flowfile.Parse("demo", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(f, task.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	h := Analyze(g, nil).Hints()
	p := dag.Optimize(g, h.PlanOptions(nil))
	np := p.Node("mid")
	if task.Describe(np.Specs[0]) != "filter_by 1 > 2" {
		t.Fatalf("facts evidence did not reorder: %v", np.Stages)
	}
	var seen bool
	for _, d := range np.Decisions {
		if d.Rule == dag.RuleFilterReorder && d.Evidence == dag.EvidenceFacts {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("no facts-evidence reorder decision: %+v", np.Decisions)
	}
}
