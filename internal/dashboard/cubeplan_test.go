package dashboard

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"shareinsights/internal/connector"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/value"
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

// cubeDiffFlow's dependents cover every shape compileCubePlan accepts —
// sums over int, float and numeric-string columns and a count, grouped
// by string, int, float, bool and time keys, one grouped by the column
// it filters, one filtering a column twice, and a pure filter chain —
// driven by discrete pickers over
// every key kind and two range sliders, one over times and dates, one
// over ints.
const cubeDiffFlow = `
D:
  src: [s, n, fl, flag, ts, day, amount, ratio, digits]

D.src:
  source: mem:src.csv
  format: csv

W:
  pick_s:
    type: List
    source: D.src
    text: s
  pick_n:
    type: List
    source: D.src
    text: n
  pick_fl:
    type: List
    source: D.src
    text: fl
  pick_flag:
    type: List
    source: D.src
    text: flag
  when:
    type: Slider
    source: D.src
    range: true
  span:
    type: Slider
    source: D.src
    range: true
  amount_by_s:
    type: Grid
    source: D.src | T.by_n | T.by_fl | T.by_ts | T.amount_s
  ratio_by_n:
    type: Grid
    source: D.src | T.by_s | T.by_flag | T.ratio_n
  digits_by_fl:
    type: Grid
    source: D.src | T.by_s | T.by_day | T.digits_fl
  rows_by_flag:
    type: Grid
    source: D.src | T.by_s | T.by_span | T.count_flag
  amount_by_ts:
    type: Grid
    source: D.src | T.by_s | T.by_fl | T.amount_ts
  ratio_by_own:
    type: Grid
    source: D.src | T.by_s | T.by_n | T.ratio_s
  rows_by_n_twice:
    type: Grid
    source: D.src | T.by_n | T.by_span | T.count_flag
  kept:
    type: Grid
    source: D.src | T.by_s | T.by_flag | T.by_ts

T:
  by_s:
    type: filter_by
    filter_by: [s]
    filter_source: W.pick_s
    filter_val: [text]
  by_n:
    type: filter_by
    filter_by: [n]
    filter_source: W.pick_n
    filter_val: [text]
  by_fl:
    type: filter_by
    filter_by: [fl]
    filter_source: W.pick_fl
    filter_val: [text]
  by_flag:
    type: filter_by
    filter_by: [flag]
    filter_source: W.pick_flag
    filter_val: [text]
  by_ts:
    type: filter_by
    filter_by: [ts]
    filter_source: W.when
  by_day:
    type: filter_by
    filter_by: [day]
    filter_source: W.when
  by_span:
    type: filter_by
    filter_by: [n]
    filter_source: W.span
  amount_s:
    type: groupby
    groupby: [s]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  ratio_n:
    type: groupby
    groupby: [n]
    aggregates:
      - operator: sum
        apply_on: ratio
        out_field: total
  digits_fl:
    type: groupby
    groupby: [fl]
    aggregates:
      - operator: sum
        apply_on: digits
        out_field: total
  count_flag:
    type: groupby
    groupby: [flag]
    aggregates:
      - operator: count
        out_field: rows
  amount_ts:
    type: groupby
    groupby: [ts]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  ratio_s:
    type: groupby
    groupby: [s]
    aggregates:
      - operator: sum
        apply_on: ratio
        out_field: total
`

// cubeDiffRows is cubeDiffFlow's endpoint: string keys with nulls and
// "", ints with nulls, floats with NaN, -0 and 0, bools, times of which
// some share a displayed second, date strings, ints above 2^53, floats
// that drift under += and -=, and numeric, non-numeric and null strings.
// With times false the ts column holds their display strings, which
// lets the endpoint convert to plain (not dictionary-coded) vectors.
func cubeDiffRows(n int, times bool) []table.Row {
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	rows := make([]table.Row, n)
	for i := range rows {
		s := value.NewString(fmt.Sprintf("s%d", i%7))
		switch i % 11 {
		case 3:
			s = value.VNull
		case 8:
			s = value.NewString("")
		}
		num := value.NewInt(int64(i%9 - 3))
		if i%13 == 4 {
			num = value.VNull
		}
		fl := value.NewFloat([]float64{1.5, math.NaN(), math.Copysign(0, -1), 0, 2.25}[i%5])
		ts := value.NewTime(base.Add(time.Duration(i%6) * time.Hour).Add(time.Duration(i%4/3) * 250 * time.Millisecond))
		if !times {
			ts = value.NewString(ts.String())
		}
		ratio := value.NewFloat(float64(i%10) / 10)
		if i%17 == 2 {
			ratio = value.VNull
		}
		digits := value.NewString([]string{"1.5", "2", "x", "-4"}[i%4])
		if i%19 == 5 {
			digits = value.VNull
		}
		rows[i] = table.Row{s, num, fl, value.NewBool(i%3 == 0), ts,
			value.NewString(fmt.Sprintf("2020-01-%02d", 1+i%8)),
			value.NewInt(int64(1)<<60 + int64(i*i)), ratio, digits}
	}
	return rows
}

// TestCubeDifferential holds the cube to the reference executor under
// seeded random interaction: after every select, multi-select, range
// and clear, every widget's data is cell for cell and kind for kind the
// reference's (Table.Equal would let 1 pass for 1.0). Endpoints are
// row-backed, plain column-backed and dictionary-coded column-backed,
// of two sizes.
func TestCubeDifferential(t *testing.T) {
	f, err := flowfile.Parse("cubediff", cubeDiffFlow)
	if err != nil {
		t.Fatal(err)
	}
	compile := func(ep *table.Table, cube bool) *Dashboard {
		d, err := NewPlatform().Compile(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range d.plans {
			plan.endpoint = ep
			if !cube {
				plan.cube = nil
			} else if plan.cube != nil {
				if err := plan.cube.bind(ep); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := d.RefreshWidgets(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	picks := map[string][]string{
		"pick_s":    {"s0", "s3", "s6", "", "zz"},
		"pick_n":    {"-3", "0", "2", "5", ""},
		"pick_fl":   {"NaN", "-0", "0", "1.5", "2.25"},
		"pick_flag": {"true", "false"},
	}
	pickers := []string{"pick_s", "pick_n", "pick_fl", "pick_flag"}
	stamps := []string{"2020-01-01", "2020-01-01T01:00:00Z", "2020-01-01T03:00:00Z", "2020-01-01T04:00:00.1Z", "2020-01-04", "2020-01-09"}
	for _, n := range []int{200, 600} {
		s := schema.MustFromNames("s", "n", "fl", "flag", "ts", "day", "amount", "ratio", "digits")
		byRows, err := table.FromRows(s, cubeDiffRows(n, true))
		if err != nil {
			t.Fatal(err)
		}
		strs, err := table.FromRows(s, cubeDiffRows(n, false))
		if err != nil {
			t.Fatal(err)
		}
		plain, ok := colstore.FromTable(strs)
		if !ok {
			t.Fatal("endpoint does not convert")
		}
		coded := colstore.NewBuilder(s)
		for _, r := range byRows.Rows() {
			coded.Append(r)
		}
		for label, ep := range map[string]*table.Table{"row-backed": byRows, "plain": plain.ToTable(), "dictionary-coded": coded.Table()} {
			withCube, reference := compile(ep, true), compile(ep, false)
			for name, plan := range withCube.plans {
				// A group by the column its own filter reads, and two filters
				// on one column, stay on the reference executor; every other
				// dependent runs on the cube.
				offCube := name == "ratio_by_own" || name == "rows_by_n_twice"
				if onCube := plan.cube != nil; plan.client != nil && onCube == offCube {
					t.Fatalf("W.%s on the cube = %v", name, onCube)
				}
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for step := 0; step < 120; step++ {
				var op string
				var act func(d *Dashboard) error
				switch k := rng.Intn(6); {
				case k < 4:
					w := pickers[rng.Intn(len(pickers))]
					var vals []string
					for j := rng.Intn(4); j > 0; j-- {
						vals = append(vals, picks[w][rng.Intn(len(picks[w]))])
					}
					op = fmt.Sprintf("select %s %q", w, vals)
					act = func(d *Dashboard) error { return d.Select(w, vals...) }
				case k == 4:
					lo, hi := stamps[rng.Intn(len(stamps))], stamps[rng.Intn(len(stamps))]
					op = fmt.Sprintf("range when %s..%s", lo, hi)
					act = func(d *Dashboard) error { return d.SelectRange("when", lo, hi) }
					if rng.Intn(3) == 0 {
						op = "clear when"
						act = func(d *Dashboard) error { return d.Select("when") }
					}
				default:
					lo, hi := fmt.Sprint(rng.Intn(9)-4), fmt.Sprint(rng.Intn(9)-4)
					op = fmt.Sprintf("range span %s..%s", lo, hi)
					act = func(d *Dashboard) error { return d.SelectRange("span", lo, hi) }
					if rng.Intn(3) == 0 {
						op = "clear span"
						act = func(d *Dashboard) error { return d.Select("span") }
					}
				}
				if err := act(withCube); err != nil {
					t.Fatal(err)
				}
				if err := act(reference); err != nil {
					t.Fatal(err)
				}
				for name := range withCube.plans {
					wc, _ := withCube.Widget(name)
					wr, _ := reference.Widget(name)
					if diff := cellDiff(wc.Data, wr.Data); diff != "" {
						t.Fatalf("%d rows %s, step %d (%s), W.%s: %s\ncube:\n%sreference:\n%s",
							n, label, step, op, name, diff, wc.Data.Format(0), wr.Data.Format(0))
					}
				}
			}
		}
	}
}
