package cube

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

func sampleCube(t *testing.T) (*Cube, *table.Table) {
	t.Helper()
	tb := table.New(schema.MustFromNames("date", "team", "count"))
	rows := []struct {
		date, team string
		count      int64
	}{
		{"d1", "CSK", 5},
		{"d1", "MI", 3},
		{"d2", "CSK", 2},
		{"d2", "RCB", 7},
		{"d3", "MI", 1},
	}
	for _, r := range rows {
		tb.AppendValues(value.NewString(r.date), value.NewString(r.team), value.NewInt(r.count))
	}
	return New(tb), tb
}

// entry is one row of a group's table.
type entry struct {
	Key   value.V
	Value value.V
}

// snapshot reads a group's live buckets in output order.
func snapshot(t *testing.T, g *Group) []entry {
	t.Helper()
	tb, err := g.Table("key", "value")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]entry, tb.Len())
	for i := range out {
		out[i] = entry{tb.At(i, 0), tb.At(i, 1)}
	}
	return out
}

func TestFilterAndMaterialize(t *testing.T) {
	c, _ := sampleCube(t)
	if c.Live() != 5 {
		t.Fatalf("live = %d", c.Live())
	}
	teams, err := c.Dimension("team")
	if err != nil {
		t.Fatal(err)
	}
	teams.Filter("CSK")
	if c.Live() != 2 {
		t.Errorf("live after team filter = %d", c.Live())
	}
	dates, err := c.Dimension("date")
	if err != nil {
		t.Fatal(err)
	}
	dates.Filter("d1")
	if c.Live() != 1 {
		t.Errorf("live after both filters = %d", c.Live())
	}
	// Materialize ignoring the team dimension: d1 rows of any team.
	m := c.Materialize(teams)
	if m.Len() != 2 {
		t.Errorf("materialize ignoring team = %d rows", m.Len())
	}
	teams.ClearFilter()
	if c.Live() != 2 { // only the date filter remains
		t.Errorf("live after clear = %d", c.Live())
	}
	dates.ClearFilter()
	if c.Live() != 5 {
		t.Errorf("live after clearing all = %d", c.Live())
	}
}

func TestFilterRange(t *testing.T) {
	c, _ := sampleCube(t)
	d, _ := c.Dimension("count")
	d.FilterRange(value.NewInt(2), value.NewInt(5))
	if c.Live() != 3 {
		t.Errorf("range filter live = %d", c.Live())
	}
}

func TestGroupObservesOtherFilters(t *testing.T) {
	c, _ := sampleCube(t)
	teams, _ := c.Dimension("team")
	dates, _ := c.Dimension("date")
	g, err := c.GroupBy(teams, Sum, "count")
	if err != nil {
		t.Fatal(err)
	}
	// Unfiltered: CSK=7, MI=4, RCB=7.
	snap := snapshot(t, g)
	if len(snap) != 3 || snap[0].Value.Int() != 7 || snap[1].Value.Int() != 4 {
		t.Fatalf("initial snapshot = %+v", snap)
	}
	// A filter on the group's own dimension must NOT affect it
	// (crossfilter semantics: a widget doesn't filter itself).
	teams.Filter("CSK")
	if got := len(snapshot(t, g)); got != 3 {
		t.Errorf("own-dimension filter changed the group: %d buckets", got)
	}
	// A filter on another dimension does.
	dates.Filter("d1")
	snap = snapshot(t, g)
	if len(snap) != 2 { // d1 has CSK and MI only
		t.Fatalf("snapshot after date filter = %+v", snap)
	}
	if snap[0].Key.Str() != "CSK" || snap[0].Value.Int() != 5 {
		t.Errorf("CSK bucket = %+v", snap[0])
	}
	dates.ClearFilter()
	if got := snapshot(t, g); len(got) != 3 || got[2].Value.Int() != 7 {
		t.Errorf("snapshot after clear = %+v", got)
	}
}

func TestGroupCount(t *testing.T) {
	c, _ := sampleCube(t)
	teams, _ := c.Dimension("team")
	g, err := c.GroupBy(teams, Count, "")
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshot(t, g)
	if len(snap) != 3 || snap[0].Value.Int() != 2 {
		t.Errorf("count group = %+v", snap)
	}
	tbl, err := g.Table("team", "n")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Schema().String() != "[team, n]" || tbl.Len() != 3 {
		t.Errorf("group table = %s", tbl.Format(0))
	}
}

func TestGroupErrors(t *testing.T) {
	c, _ := sampleCube(t)
	if _, err := c.Dimension("nope"); err == nil {
		t.Error("unknown dimension column should fail")
	}
	teams, _ := c.Dimension("team")
	if _, err := c.GroupBy(teams, Sum, "nope"); err == nil {
		t.Error("unknown value column should fail")
	}
}

// TestIncrementalMatchesRecompute is the core cube invariant: after any
// sequence of filter changes, every group equals a from-scratch
// recomputation over the filtered rows.
func TestIncrementalMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tb := table.New(schema.MustFromNames("a", "b", "v"))
	for i := 0; i < 500; i++ {
		tb.AppendValues(
			value.NewString(fmt.Sprintf("a%d", rng.Intn(5))),
			value.NewString(fmt.Sprintf("b%d", rng.Intn(7))),
			value.NewInt(int64(rng.Intn(100))),
		)
	}
	c := New(tb)
	da, _ := c.Dimension("a")
	db, _ := c.Dimension("b")
	g, err := c.GroupBy(da, Sum, "v")
	if err != nil {
		t.Fatal(err)
	}
	recompute := func() map[string]float64 {
		want := map[string]float64{}
		// Group on a observes b's filter only.
		m := c.Materialize(da)
		ai := m.Schema().Index("a")
		vi := m.Schema().Index("v")
		for _, r := range m.Rows() {
			want[r[ai].Str()] += r[vi].Float()
		}
		return want
	}
	check := func(step string) {
		want := recompute()
		got := map[string]float64{}
		for _, e := range snapshot(t, g) {
			got[e.Key.Str()] = e.Value.Float()
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d buckets, want %d", step, len(got), len(want))
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("%s: bucket %s = %v, want %v", step, k, got[k], w)
			}
		}
	}
	check("initial")
	for i := 0; i < 30; i++ {
		switch rng.Intn(4) {
		case 0:
			db.Filter(fmt.Sprintf("b%d", rng.Intn(7)), fmt.Sprintf("b%d", rng.Intn(7)))
		case 1:
			db.ClearFilter()
		case 2:
			da.Filter(fmt.Sprintf("a%d", rng.Intn(5)))
		case 3:
			da.ClearFilter()
		}
		check(fmt.Sprintf("step %d", i))
	}
}

func TestDimensionReuseAndLimit(t *testing.T) {
	c, _ := sampleCube(t)
	d1, _ := c.Dimension("team")
	d2, _ := c.Dimension("team")
	if d1 != d2 {
		t.Error("same column should return the same dimension")
	}
}

func TestCubeCountInvariantProperty(t *testing.T) {
	// For random data and one filter, Live() equals the brute count.
	f := func(vals []uint8) bool {
		tb := table.New(schema.MustFromNames("k"))
		for _, v := range vals {
			tb.AppendValues(value.NewInt(int64(v % 4)))
		}
		c := New(tb)
		d, err := c.Dimension("k")
		if err != nil {
			return false
		}
		d.Filter("1", "3")
		want := 0
		for _, v := range vals {
			if v%4 == 1 || v%4 == 3 {
				want++
			}
		}
		return c.Live() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCubeSumsMatchReference holds every group to a fresh group-by (the
// task package's) over the rows it observes, after every filter change:
// the same buckets in the same order with the same key cells, and sums
// of the same kind and value — a float sum re-folded in row order, not
// drifted by incremental += and -=; an int sum exact above 2^53; a sum
// over a column mixing ints and floats a float, over numeric strings an
// int; an all-null bucket the int 0. Its first four rows are the drift
// seen in service: bucket x of 0.1, 0.2, 0.3 and 0.7 filtered to "a"
// served 0.3999999999999999 for 0.4. It runs over a row-backed and a
// column-backed copy of the same cells.
func TestCubeSumsMatchReference(t *testing.T) {
	s := schema.MustFromNames("x", "f", "fl", "big", "mixed", "text")
	big := int64(1) << 60
	var rows []table.Row
	for i, fl := range []float64{0.1, 0.2, 0.3, 0.7, 1e16, 1, -0.5, 2.5, 0.1, 0.7} {
		key := value.NewString([]string{"x", "y"}[i/4%2])
		if i >= 8 {
			key = value.NewFloat(math.Copysign(0, float64(i-9))) // -0 then 0
		}
		mixed := value.NewInt(int64(i))
		if i%4 == 1 {
			mixed = value.NewFloat(float64(i) + 0.25)
		}
		text := value.NewString(fmt.Sprintf("%d.5", i))
		if i%5 == 2 {
			text = value.VNull
		}
		rows = append(rows, table.Row{key, value.NewString([]string{"a", "b"}[i%2]),
			value.NewFloat(fl), value.NewInt(big + int64(i)), mixed, text})
	}
	rows[5][2] = value.VNull // a float column with a null
	byRows, err := table.FromRows(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	b := colstore.NewBuilder(s)
	for _, r := range rows {
		b.Append(r)
	}
	for label, base := range map[string]*table.Table{"row-backed": byRows, "column-backed": b.Table()} {
		c := New(base)
		keys, _ := c.Dimension("x")
		f, _ := c.Dimension("f")
		vals := []string{"fl", "big", "mixed", "text"}
		groups := make([]*Group, len(vals))
		for i, v := range vals {
			if groups[i], err = c.GroupBy(keys, Sum, v); err != nil {
				t.Fatal(err)
			}
		}
		check := func(step string) {
			t.Helper()
			for i, v := range vals {
				got, err := groups[i].Table("x", "total")
				if err != nil {
					t.Fatal(err)
				}
				spec := &task.GroupBySpec{GroupBy: []string{"x"}, Aggs: []task.AggSpec{{Operator: "sum", ApplyOn: v, OutField: "total"}}}
				want, err := spec.Exec(nil, []*table.Table{c.Materialize(keys)}, []string{"in"})
				if err != nil {
					t.Fatal(err)
				}
				if diff := cellDiff(got, want); diff != "" {
					t.Fatalf("%s, %s, sum of %s: %s\ngot:\n%swant:\n%s", label, step, v, diff, got.Format(0), want.Format(0))
				}
			}
		}
		check("unfiltered")
		f.Filter("a")
		check(`filter "a"`)
		f.ClearFilter()
		check("cleared")
		f.Filter("b")
		check(`filter "b"`)
		f.FilterRange(value.NewString("a"), value.NewString("a"))
		check("range [a, a]")
	}
}

// cellDiff describes the first cell where got and want differ in kind,
// display form or float payload; "" when they hold the same cells.
func cellDiff(got, want *table.Table) string {
	if !got.Schema().Equal(want.Schema()) || got.Len() != want.Len() {
		return fmt.Sprintf("shape %s × %d, want %s × %d", got.Schema(), got.Len(), want.Schema(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		for c := 0; c < want.Schema().Len(); c++ {
			g, w := got.At(i, c), want.At(i, c)
			same := g.Kind() == w.Kind() && g.String() == w.String()
			if same && w.Kind() == value.Float {
				same = g.Float() == w.Float() || math.IsNaN(g.Float()) && math.IsNaN(w.Float())
			}
			if !same {
				return fmt.Sprintf("row %d column %d: %v (kind %v), want %v (kind %v)", i, c, g, g.Kind(), w, w.Kind())
			}
		}
	}
	return ""
}
