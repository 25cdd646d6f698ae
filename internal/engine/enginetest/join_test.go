package enginetest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"shareinsights/internal/dag"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/obs"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

// The join matrix joins D.l with D.r, two tables of the same shape: one
// key column per kind (ks string, ki int, kf float, kb bool), kx whose
// kind differs across the sides (int on the left, float on the right —
// 1 must never match 1.0 — and text "1" vs int 1 through km), and a
// payload column numbering the rows so output order is observable.
const joinHeader = `
D:
  l: [ks, ki, kf, kb, kx, km, v]
  r: [ks, ki, kf, kb, kx, km, v]

`

// joinShape is how the two sides' keys relate.
type joinShape int

const (
	shapeDuplicates joinShape = iota // small shared domains, nulls: keys repeat on both sides and some miss
	shapeEmptyLeft
	shapeEmptyRight
	shapeNoMatches // disjoint domains, no nulls (null would match null)
	shapeAllMatch  // every left key has exactly one partner
)

var joinShapes = map[joinShape]string{
	shapeDuplicates: "duplicates", shapeEmptyLeft: "empty_left", shapeEmptyRight: "empty_right",
	shapeNoMatches: "no_matches", shapeAllMatch: "all_match",
}

// joinSide builds one input. domain offsets the key values (disjoint
// sides for shapeNoMatches); nulls allows null keys; seq makes row i's
// keys the i'th combination instead of random draws, so a build side of
// seq rows holds every key exactly once.
func joinSide(rng *rand.Rand, n int, left bool, domain int, nulls, seq bool) *table.Table {
	tb := table.New(schema.MustFromNames("ks", "ki", "kf", "kb", "kx", "km", "v"))
	strs := []string{"a", "b", "a\x00b", "a\x00", "", "1"}
	floats := []float64{0, math.Copysign(0, -1), 1, 2.5, math.NaN(), math.Inf(-1)}
	for i := 0; i < n; i++ {
		pick := func(m int) int {
			if seq {
				return i % m
			}
			return rng.Intn(m)
		}
		cell := func(v value.V) value.V {
			if nulls && rng.Intn(7) == 0 {
				return value.VNull
			}
			return v
		}
		j := pick(6)
		kx, km := value.NewInt(int64(pick(3)+domain)), value.NewString(fmt.Sprint(pick(3)+domain))
		if !left {
			kx, km = value.NewFloat(float64(pick(3)+domain)), value.NewInt(int64(pick(3)+domain))
		}
		f := floats[j]
		if domain != 0 {
			f = float64(100 + j)
		}
		tb.AppendValues(
			cell(value.NewString(strs[j]+strings.Repeat("~", domain))),
			cell(value.NewInt(int64(j+domain))),
			cell(value.NewFloat(f)),
			cell(value.NewBool((j+domain)%2 == 0)),
			cell(kx), cell(km),
			value.NewInt(int64(i)),
		)
	}
	return tb
}

func joinInputs(shape joinShape, seed int64, probeRows int) map[string]*table.Table {
	rng := rand.New(rand.NewSource(seed))
	var l, r *table.Table
	switch shape {
	case shapeDuplicates:
		l, r = joinSide(rng, probeRows, true, 0, true, false), joinSide(rng, 40, false, 0, true, false)
	case shapeEmptyLeft:
		l, r = joinSide(rng, 0, true, 0, true, false), joinSide(rng, 40, false, 0, true, false)
	case shapeEmptyRight:
		l, r = joinSide(rng, probeRows, true, 0, true, false), joinSide(rng, 0, false, 0, true, false)
	case shapeNoMatches:
		l, r = joinSide(rng, probeRows, true, 0, false, false), joinSide(rng, 40, false, 7, false, false)
	case shapeAllMatch:
		l, r = joinSide(rng, probeRows, true, 0, false, false), joinSide(rng, 6, false, 0, false, true)
	}
	return map[string]*table.Table{"l": l, "r": r}
}

// joinKeySets are the key variants of the matrix: each kind alone, the
// two cross-kind pairs, and two-column keys (one of them over the strings
// that embed the key separator).
var joinKeySets = []string{"ks", "ki", "kf", "kb", "kx", "km", "ks, ki", "ks, kf"}

// joinFlow renders one matrix flow. variant 0 projects explicitly, 1
// takes the default qualified names, 2 lists the inputs right-first.
func joinFlow(cond, keys string, variant int) string {
	inputs, project := "(D.l, D.r)", ""
	switch variant {
	case 0:
		project = "    project:\n      l_v: lv\n      r_v: rv\n      r_ks: ks\n      l_kf: kf\n      r_kx: kx\n"
	case 2:
		inputs = "(D.r, D.l)"
	}
	return joinHeader + "F:\n  D.out: " + inputs + " | T.j\n\nT:\n  j:\n    type: join\n" +
		"    left: l by (" + keys + ")\n    right: r by (" + keys + ")\n    join_condition: " + cond + "\n" + project
}

// TestJoinMatrixDifferential runs the fixed join matrix — conditions ×
// key kinds × data shapes × projection / input-order variants — through
// diffFlow: row-backed and column-backed inputs, off / on, planned and
// unplanned, exact order at parallelism 1.
func TestJoinMatrixDifferential(t *testing.T) {
	for _, cond := range []string{"inner", "left outer", "right outer", "full outer"} {
		for shape, shapeName := range joinShapes {
			cond, shape, shapeName := cond, shape, shapeName
			t.Run(strings.ReplaceAll(cond, " ", "_")+"/"+shapeName, func(t *testing.T) {
				for ki, keys := range joinKeySets {
					sources := joinInputs(shape, int64(ki)+11*int64(shape), 300)
					for variant := 0; variant < 3; variant++ {
						if testing.Short() && variant != ki%3 {
							continue
						}
						diffFlow(t, joinFlow(cond, keys, variant), sources)
					}
				}
			})
		}
	}
}

// TestJoinFilterFusion runs a join followed by a filter, under every join
// condition, in both input orders, with the filter reading the probe
// side, the build side or both, true on null and false on null, through
// diffFlow — over keys that repeat and over keys no row shares, where
// every build row is unmatched — and then checks where the pair fused:
// the filter's span is flagged fused and explain marks it exactly for an
// inner or left outer join, whichever side it reads. A right or full
// outer join emits build rows no probe row joined, whose nulls the filter
// must see, so it never fuses. A fused filter still reports the join's
// output as its rows in.
func TestJoinFilterFusion(t *testing.T) {
	for _, shape := range []joinShape{shapeDuplicates, shapeNoMatches} {
		joinFilterFusion(t, joinShapes[shape], joinInputs(shape, 3, 300))
	}
	// One join task ahead of two filters: each flow runs its own inside it.
	flow := strings.Replace(joinFlow("inner", "ks", 1), "| T.j\n", "| T.j | T.f\n  D.out2: (D.l, D.r) | T.j | T.g\n", 1) +
		"  f:\n    type: filter_by\n    filter_expression: l_v > 3\n" +
		"  g:\n    type: filter_by\n    filter_expression: l_v < 2\n"
	diffFlow(t, flow, joinInputs(shapeDuplicates, 3, 300))
}

// joinFilterFusion is TestJoinFilterFusion over one data shape.
func joinFilterFusion(t *testing.T, shape string, sources map[string]*table.Table) {
	for _, cond := range []string{"inner", "left outer", "right outer", "full outer"} {
		for _, pred := range []struct{ side, expr string }{
			{"probe", "not (l_v > 3)"}, {"build", "not (r_v > 3)"}, {"both", "not (l_v > 3 and r_v > 3)"},
			{"probe", "l_v > 3"}, {"build", "r_v > 3"}, {"both", "l_v > 3 and r_v > 3"},
		} {
			for variant := 1; variant <= 2; variant++ {
				flow := strings.Replace(joinFlow(cond, "ks", variant), "| T.j\n", "| T.j | T.f\n", 1) +
					"  f:\n    type: filter_by\n    filter_expression: " + pred.expr + "\n"
				name := fmt.Sprintf("%s/%s/%s/variant%d", shape, cond, pred.expr, variant)
				diffFlow(t, flow, sources)
				want := cond == "inner" || cond == "left outer"
				g := buildGraph(t, flow)
				if st := dag.Optimize(g, dag.PlanOptions{}).Node("out").Stages; st[1].Fused != want {
					t.Errorf("%s: explain marks the filter fused=%v, want %v", name, st[1].Fused, want)
				}
				tr := obs.NewTrace("t")
				e := &batch.Executor{Parallelism: 1, Tracer: tr}
				res, err := e.RunContext(context.Background(), g, &task.Env{}, sources)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range tr.Spans() {
					if strings.HasPrefix(s.Name, "stage filter_by") && s.HasFlag("fused") != want {
						t.Errorf("%s: the filter's span flags %v, want fused=%v", name, s.Flags, want)
					}
				}
				if tm := res.Stats.Timings; len(tm) != 2 || tm[1].RowsIn != tm[0].Rows || tm[1].Path != batch.PathColumnar {
					t.Errorf("%s: timings %+v, want the join's rows out as the columnar filter's rows in", name, tm)
				}
			}
		}
	}
}

// TestJoinBoxedInputStaysColumnar: a join whose input holds a column with
// no typed vector (a time column here, a mixed-kind one on the other
// side) reads it boxed: it runs on the join kernel under every mode and
// agrees with the reference.
func TestJoinBoxedInputStaysColumnar(t *testing.T) {
	sources := joinInputs(shapeDuplicates, 5, 300)
	stamped := table.New(sources["l"].Schema())
	for i, r := range sources["l"].Rows() {
		row := r.Clone()
		row[5] = value.NewTime(time.Unix(int64(i)*60, 0)) // km
		stamped.Append(row)
	}
	mixed := table.New(sources["r"].Schema())
	for i, r := range sources["r"].Rows() {
		row := r.Clone()
		if i%3 == 0 {
			row[4] = value.NewString("x") // kx: floats and text
		}
		mixed.Append(row)
	}
	for name, src := range map[string]map[string]*table.Table{
		"time_left":   {"l": stamped, "r": sources["r"]},
		"mixed_right": {"l": sources["l"], "r": mixed},
	} {
		flow := joinFlow("full outer", "ks", 1)
		diffFlow(t, flow, src)
		for _, in := range []map[string]*table.Table{src, columnBacked(src)} {
			res := runPath(t, buildGraph(t, flow), in, "", 1)
			if n := countPaths(res, batch.PathColumnar); n != 1 {
				t.Errorf("%s: %d columnar stages; want the join's", name, n)
			}
		}
	}
}

// stagePath returns the executed path of the first stage whose
// description starts with prefix.
func stagePath(t *testing.T, res *batch.Result, prefix string) string {
	t.Helper()
	for _, st := range res.Stats.Timings {
		if strings.HasPrefix(st.Stage, prefix) {
			return st.Path
		}
	}
	t.Fatalf("no stage %q in %v", prefix, res.Stats.Timings)
	return ""
}

// joinSortLimitPathReported is TestColumnarPathReported's two-input
// half: the join, sort and limit stages report the path they ran on like
// every other stage, and the join's span carries the columnar flag with
// both inputs as its rows in.
func joinSortLimitPathReported(t *testing.T) {
	flow := joinHeader + `
F:
  D.out: (D.l, D.r) | T.j | T.s | T.cut

T:
  j:
    type: join
    left: l by ks
    right: r by ks
    join_condition: left outer
  s:
    type: sort
    orderby_column: [l_v DESC]
  cut:
    type: limit
    limit: 280
`
	g := buildGraph(t, flow)
	big, small := joinInputs(shapeAllMatch, 1, 300), joinInputs(shapeAllMatch, 1, 20)
	for _, tc := range []struct {
		name    string
		sources map[string]*table.Table
		mode    string
		want    string
	}{
		{"default", small, "", batch.PathColumnar},
		{"off", big, batch.ColumnarOff, batch.PathRow},
	} {
		res := runPath(t, g, tc.sources, tc.mode, 1)
		for _, stage := range []string{"join ", "sort", "limit"} {
			if got := stagePath(t, res, stage); got != tc.want {
				t.Errorf("%s: stage %q ran on the %s path, want %s", tc.name, stage, got, tc.want)
			}
		}
	}

	tr := obs.NewTrace("t")
	e := &batch.Executor{Parallelism: 1, Tracer: tr}
	if _, err := e.RunContext(context.Background(), g, &task.Env{}, big); err != nil {
		t.Fatal(err)
	}
	var saw bool
	for _, s := range tr.Spans() {
		if !strings.HasPrefix(s.Name, "stage join ") {
			continue
		}
		saw = true
		rowsIn, _ := s.Int("rows_in")
		if want := int64(big["l"].Len() + big["r"].Len()); !s.HasFlag("columnar") || rowsIn != want {
			t.Errorf("join span flags %v rows_in %d, want columnar and %d", s.Flags, rowsIn, want)
		}
	}
	if !saw {
		t.Error("no join stage span")
	}
}

// TestMinOverBoolStaysColumnar: a group-by whose aggregate has no typed
// loop for its column's kind (min over a bool column) folds with the
// aggregate's own accumulator on the columnar path — each stage is timed
// once, on the path it was bound to, and agrees with the reference.
func TestMinOverBoolStaysColumnar(t *testing.T) {
	flow := joinHeader + `
F:
  D.out: (D.l, D.r) | T.j | T.lo

T:
  j:
    type: join
    left: l by ks
    right: r by ks
  lo:
    type: groupby
    groupby: [l_ki]
    aggregates:
      - operator: min
        apply_on: r_kb
        out_field: lo
`
	sources := joinInputs(shapeAllMatch, 2, 300)
	diffFlow(t, flow, sources)
	res := runPath(t, buildGraph(t, flow), sources, "", 1)
	if len(res.Stats.Timings) != 2 || countPaths(res, batch.PathColumnar) != 2 {
		t.Errorf("timings %+v: want the join and the group-by, once each, on the columnar path", res.Stats.Timings)
	}
}
