package dashboard

import (
	"fmt"
	"math/rand"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/flowfile"
)

// interactionFlow has a cube-qualifying widget (filters + single-key
// sum group) and a non-qualifying one (topn), both driven by the same
// selections.
const interactionFlow = `
D:
  events: [team, phase, hour, operator, widget, success]

D.events:
  source: mem:events.csv
  format: csv

F:
  +D.teams_list: D.events | T.team_groups
  +D.phase_list: D.events | T.phase_groups

W:
  teams:
    type: List
    source: D.teams_list
    text: team

  phases:
    type: List
    source: D.phase_list
    text: phase

  usage:
    type: BarChart
    source: D.events | T.pre_group | T.pick_team | T.pick_phase | T.sum_ops
    x: operator
    y: uses

  top_ops:
    type: Grid
    source: D.events | T.pre_group | T.pick_team | T.pick_phase | T.sum_ops | T.top3

T:
  team_groups:
    type: groupby
    groupby: [team]
  phase_groups:
    type: groupby
    groupby: [phase]
  pre_group:
    type: groupby
    groupby: [operator, team, phase]
    aggregates:
      - operator: count
        out_field: uses
  pick_team:
    type: filter_by
    filter_by: [team]
    filter_source: W.teams
    filter_val: [text]
  pick_phase:
    type: filter_by
    filter_by: [phase]
    filter_source: W.phases
    filter_val: [text]
  sum_ops:
    type: groupby
    groupby: [operator]
    aggregates:
      - operator: sum
        apply_on: uses
        out_field: uses
  top3:
    type: topn
    groupby: [operator]
    orderby_column: [uses DESC]
    limit: 3
`

// interactionDashboard compiles and runs interactionFlow. Without cube,
// every widget plan drops its cube plan, so interactions run on the
// reference executor — the oracle the cube is checked against.
func interactionDashboard(t testing.TB, cube bool) *Dashboard {
	t.Helper()
	p := NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"events.csv": interactionEvents},
	})
	f, err := flowfile.Parse("inter", interactionFlow)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Compile(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cube {
		for _, plan := range d.plans {
			plan.cube = nil
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	return d
}

var interactionEvents = func() []byte {
	// Reuse the hackathon telemetry shape without importing the package
	// (dashboard must not depend on the simulator): synthesize directly.
	rng := rand.New(rand.NewSource(5))
	ops := []string{"filter_by", "groupby", "map:date", "join", "topn"}
	teams := []string{"1", "2", "3", "4", "5"}
	phases := []string{"practice", "competition"}
	var b []byte
	for i := 0; i < 5000; i++ {
		line := fmt.Sprintf("%s,%s,%.2f,%s,-,true\n",
			teams[rng.Intn(len(teams))], phases[rng.Intn(len(phases))],
			rng.Float64()*6, ops[rng.Intn(len(ops))])
		b = append(b, line...)
	}
	return b
}()

func TestCubePlanCompiled(t *testing.T) {
	d := interactionDashboard(t, true)
	if d.plans["usage"].cube == nil {
		t.Error("usage widget should compile to a cube plan")
	}
	if d.plans["top_ops"].cube != nil {
		t.Error("topn pipeline must not compile to a cube plan")
	}
}

func TestCubeMatchesReferenceUnderRandomInteraction(t *testing.T) {
	withCube := interactionDashboard(t, true)
	reference := interactionDashboard(t, false)
	rng := rand.New(rand.NewSource(77))
	teams := []string{"1", "2", "3", "4", "5"}
	phases := []string{"practice", "competition"}
	step := func(d *Dashboard, kind int, a, b string) error {
		switch kind {
		case 0:
			return d.Select("teams", a)
		case 1:
			return d.Select("teams", a, b)
		case 2:
			return d.Select("teams") // clear
		case 3:
			return d.Select("phases", a)
		default:
			return d.Select("phases")
		}
	}
	for i := 0; i < 40; i++ {
		kind := rng.Intn(5)
		var a, b string
		if kind <= 2 {
			a, b = teams[rng.Intn(5)], teams[rng.Intn(5)]
		} else {
			a = phases[rng.Intn(2)]
		}
		if err := step(withCube, kind, a, b); err != nil {
			t.Fatal(err)
		}
		if err := step(reference, kind, a, b); err != nil {
			t.Fatal(err)
		}
		wc, _ := withCube.Widget("usage")
		wr, _ := reference.Widget("usage")
		if !wc.Data.Equal(wr.Data) {
			t.Fatalf("step %d (kind %d, %q/%q): cube and reference diverge:\n%s\nvs\n%s",
				i, kind, a, b, wc.Data.Format(0), wr.Data.Format(0))
		}
		tc, _ := withCube.Widget("top_ops")
		tr, _ := reference.Widget("top_ops")
		if !tc.Data.Equal(tr.Data) {
			t.Fatalf("step %d: fallback widget diverges", i)
		}
	}
}

func BenchmarkInteractionCube(b *testing.B) {
	d := interactionDashboard(b, true)
	benchInteraction(b, d)
}

func BenchmarkInteractionReference(b *testing.B) {
	d := interactionDashboard(b, false)
	benchInteraction(b, d)
}

func benchInteraction(b *testing.B, d *Dashboard) {
	teams := []string{"1", "2", "3", "4", "5"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Select("teams", teams[i%5]); err != nil {
			b.Fatal(err)
		}
	}
}
