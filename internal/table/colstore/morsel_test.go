package colstore

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"shareinsights/internal/expr"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// compileVecSrc parses src and compiles it with CompileVec.
func compileVecSrc(src string, s *schema.Schema) (*VecEval, error) {
	n, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileVec(n, s)
}

// boxedRows evaluates src over tb's rows with every cell boxed, size
// rows at a time, so that every operator runs its per-element loop over
// the scalar rules: the rows' own evaluation, which the typed loops must
// match.
func boxedRows(t testing.TB, src string, tb *table.Table, size int) []value.V {
	t.Helper()
	e := compileSize(t, src, tb.Schema(), size)
	view := &Batch{cols: make([]*Vec, tb.Schema().Len())}
	for c := range view.cols {
		view.cols[c] = &Vec{kind: anyKind, anys: make([]value.V, size), length: size}
	}
	st := e.over(view, size)
	rows, out := tb.Rows(), make([]value.V, 0, tb.Len())
	for lo := 0; lo < len(rows); lo += size {
		n := min(size, len(rows)-lo)
		for i := range n {
			for c, v := range view.cols {
				v.anys[i] = rows[lo+i][c]
			}
		}
		r := e.step(st, n, nil)
		for i := range n {
			out = append(out, r.At(i))
		}
		st.release(r, e.owned)
	}
	return out
}

// whole is a morsel size no batch reaches: the batch in one morsel.
const whole = math.MaxInt

// compileSize compiles src to an evaluator that runs size rows at a time.
func compileSize(t testing.TB, src string, s *schema.Schema, size int) *VecEval {
	t.Helper()
	n, err := expr.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := compileMorsels(n, s, size)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// evalBatch is e over b, a one-step run of a map into Materialize: the
// computed column, the whole batch's whatever the morsel size.
func evalBatch(e *VecEval, b *Batch) *Vec {
	out, _ := (&MapExpr{Eval: e, Slot: len(b.cols)}).Run(b)
	return out.cols[len(b.cols)]
}

// morselBatch is 2,500 rows (no multiple of 64 or of 1,024) whose nulls
// and kinds change from morsel to morsel: a has nulls only in rows
// 1,100–1,149 and b (float) only in 2,100–2,109, where a is null too; w
// is zero in 600–699; m holds ints up to row 1,500 and floats after it
// (a boxed column); z is null throughout; s is dictionary-coded.
func morselBatch() *Batch {
	const n = 2500
	bld := NewBuilder(schema.MustFromNames("a", "b", "s", "flag", "m", "z", "w"))
	for i := 0; i < n; i++ {
		a, b := value.NewInt(int64(i%9-4)), value.NewFloat(float64(i%13)/4-1)
		if i >= 1100 && i < 1150 {
			a = value.VNull
		}
		if i >= 2100 && i < 2110 {
			a, b = value.VNull, value.VNull
		}
		m := value.NewInt(int64(i % 5))
		if i >= 1500 {
			m = value.NewFloat(float64(i%5) + 0.5)
		}
		w := value.NewInt(int64(i%3 + 1))
		if i >= 600 && i < 700 {
			w = value.NewInt(0)
		}
		s := value.NewString([]string{"abc", "x", "", "zab"}[i%4])
		if i >= 300 && i < 310 {
			s = value.VNull
		}
		bld.Append([]value.V{a, b, s, value.NewBool(i%3 == 0), m, value.VNull, w})
	}
	b, _ := bld.Table().Columns().(*Batch)
	return b
}

// TestMorselsMatchWholeBatch: evaluated 64 or 1,024 rows at a time, every
// expression — typed loops, the scalar loops, results whose kind differs
// between morsels (b + b is an int 0 where both sides are null and a
// float elsewhere; m is ints, then floats) — gives the whole-batch
// result cell for cell and kind for kind, and the same vector kind, over
// a column-backed batch, a reversed selection of it and one with holes.
func TestMorselsMatchWholeBatch(t *testing.T) {
	base := morselBatch()
	rev, holes := make([]int32, base.Len()), make([]int32, base.Len()+37)
	for i := range rev {
		rev[i] = int32(base.Len() - 1 - i)
	}
	for i := range holes {
		holes[i] = int32(i * 7 % base.Len())
		if i%11 == 0 {
			holes[i] = -1
		}
	}
	srcs := append([]string{"a", "7", "b + b", "(b + b) * 2", "b + b > 0", "m * 2", "m + a", "-m", "m in (1, 2.5)",
		"z + a", "z == z", "a / w", "b / w", "a % w", "s + s", "a + b * m", "not m", "a in (1, b)"}, exprCases...)
	for name, b := range map[string]*Batch{"dense": base, "selection": base.selectRows(rev), "holes": base.selectRows(holes)} {
		for _, src := range srcs {
			want := evalBatch(compileSize(t, src, b.Schema(), whole), b)
			for _, size := range []int{64, 1024} {
				got := evalBatch(compileSize(t, src, b.Schema(), size), b)
				if got.Kind() != want.Kind() || got.Len() != want.Len() {
					t.Fatalf("%s, %q by %d: %v vector of %d, whole batch %v of %d", name, src, size, got.Kind(), got.Len(), want.Kind(), want.Len())
				}
				for i := 0; i < want.Len(); i++ {
					if x, y := got.At(i), want.At(i); x.Kind() != y.Kind() || x.String() != y.String() {
						t.Fatalf("%s, %q by %d: row %d is %v %v, whole batch %v %v", name, src, size, i, x.Kind(), x, y.Kind(), y)
					}
				}
			}
		}
	}
}

// kernelBatch is n rows of the keys the hash kernels meet: s is a string
// of distinct values, null in every 17th row, and past row 900 every
// fourth row is one of ten keys no earlier row has; i is an int of seven
// values, in one of five with nulls, f a float with NaN, both zeros and
// nulls, b a bool, v the row number and z null throughout. built picks
// the Builder, which codes s, over a row table's conversion, which does
// not.
func kernelBatch(n, distinct int, built bool) *Batch {
	tb := table.New(schema.MustFromNames("s", "i", "in", "f", "b", "v", "z"))
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.NaN(), -2}
	for r := 0; r < n; r++ {
		s, in, f := value.NewString("k"+strconv.Itoa(r%distinct)), value.NewInt(int64(r%5)), value.NewFloat(floats[r%5])
		if r > 900 && r%4 == 0 {
			s = value.NewString("late" + strconv.Itoa(r%10))
		}
		if r%17 == 0 {
			s = value.VNull
		}
		if r%11 == 0 {
			in = value.VNull
		}
		if r%13 == 0 {
			f = value.VNull
		}
		tb.AppendValues(s, value.NewInt(int64(r%7)), in, f, value.NewBool(r%3 == 0), value.NewInt(int64(r)), value.VNull)
	}
	if built {
		tb = rebuilt(tb)
	}
	b, _ := FromTable(tb)
	return b
}

// sameBatch fails t unless got holds the cells and vector kinds of want,
// the whole-batch reference.
func sameBatch(t *testing.T, what string, got, want *Batch) {
	t.Helper()
	if !sameCells(got.ToTable(), want.ToTable()) {
		t.Fatalf("%s:\n%s\nwhole batch:\n%s", what, got.ToTable().Format(0), want.ToTable().Format(0))
	}
	for c, v := range got.cols {
		if v.kind != want.cols[c].kind {
			t.Fatalf("%s: column %d is a %v vector, whole batch a %v", what, c, v.kind, want.cols[c].kind)
		}
	}
}

// TestKernelsMatchAcrossMorsels: run 64 or 128 rows at a time, the join
// (all four conditions), the group-by (every registered aggregate over
// every column) and the filter give the whole-batch result cell for cell
// and vector kind for vector kind — over dictionary-coded, plain, int,
// float and multi-column keys, nulls, NaN, a left outer join's holes and
// groups that first appear in a late morsel.
func TestKernelsMatchAcrossMorsels(t *testing.T) {
	coded, plain, right := kernelBatch(1000, 30, true), kernelBatch(1000, 30, false), kernelBatch(80, 40, true)
	names := coded.Schema().Names()
	var cols []JoinCol
	out := append([]string(nil), names...)
	for c := range names {
		cols = append(cols, JoinCol{Col: c})
	}
	for _, c := range []int{1, 4} {
		out, cols = append(out, "r"+names[c]), append(cols, JoinCol{Right: true, Col: c})
	}
	var holed *Batch
	for _, keys := range [][]int{{0}, {1}, {2}, {3}, {0, 4}} {
		for cond := 0; cond < 4; cond++ {
			for name, left := range map[string]*Batch{"coded": coded, "plain": plain} {
				join := &Join{LeftKeys: keys, RightKeys: keys, KeepLeft: cond&1 != 0, KeepRight: cond&2 != 0,
					Cols: cols, Out: schema.MustFromNames(out...)}
				want, err := one((*Probe)(join), left, right, whole)
				if err != nil {
					t.Fatal(err)
				}
				for _, size := range []int{64, 128} {
					got, err := one((*Probe)(join), left, right, size)
					if err != nil {
						t.Fatal(err)
					}
					sameBatch(t, fmt.Sprintf("%s join on %v, condition %d, by %d", name, keys, cond, size), got, want)
				}
				if name == "coded" && len(keys) == 1 && keys[0] == 0 && cond == 1 {
					holed = want
				}
			}
		}
	}

	var ops []string
	for op := range Registry {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for name, in := range map[string]*Batch{"coded": coded, "plain": plain, "holed": holed} {
		var aggs []Agg
		outs := []string{"k0", "k1"}
		for _, op := range ops {
			for c := -1; c < in.Schema().Len(); c++ {
				aggs, outs = append(aggs, Agg{Op: op, Col: c, New: Registry[op]}), append(outs, fmt.Sprintf("a%d", len(aggs)))
			}
		}
		// No sort keys: the groups come out in first-seen order, as the
		// fold left them.
		for _, keys := range [][]int{{0}, {1}, {2}, {3}, {0, 4}, {in.Schema().Len() - 1}} {
			group := &GroupBy{Keys: keys, Aggs: aggs, Out: schema.MustFromNames(append(outs[2-len(keys):2:2], outs[2:]...)...)}
			want, err := group.run(in, whole)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{64, 128} {
				got, err := group.run(in, size)
				if err != nil {
					t.Fatal(err)
				}
				sameBatch(t, fmt.Sprintf("%s group-by %v by %d", name, keys, size), got, want)
			}
		}
	}

	for _, src := range []string{"v % 3 == 0", "in", "f", "s", "b and i > 2", "not b", "z", "in + 1", "s contains 'late'", "true"} {
		for name, in := range map[string]*Batch{"coded": coded, "plain": plain, "holed": holed} {
			want, err := (&Filter{Pred: compileSize(t, src, in.Schema(), whole)}).Run(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{64, 128} {
				got, err := (&Filter{Pred: compileSize(t, src, in.Schema(), size)}).Run(in)
				if err != nil {
					t.Fatal(err)
				}
				sameBatch(t, fmt.Sprintf("%s filter %q by %d", name, src, size), got, want)
			}
		}
	}
}

// weightBatch is batch_join's map-expr input: four int columns of n rows.
func weightBatch(n int) *Batch {
	bld := NewBuilder(schema.MustFromNames("noOfCheckins", "noOfBugs", "noOfContributors", "noOfReleases"))
	for i := 0; i < n; i++ {
		bld.Append([]value.V{value.NewInt(int64(i % 1000)), value.NewInt(int64(i % 97)), value.NewInt(int64(i % 41)), value.NewInt(int64(i % 7))})
	}
	b, _ := bld.Table().Columns().(*Batch)
	return b
}

const weightExpr = "noOfCheckins * 2 + noOfBugs + noOfContributors * 5 + noOfReleases * 20"

// TestMapExprTempsBounded: batch_join's weight over 60,000 rows allocates
// its result (480,000 bytes) and two one-morsel temporaries, at most
// 520,000 bytes. Evaluating the whole batch at once allocates a second
// full-length vector for the temporaries: 967,874 bytes.
func TestMapExprTempsBounded(t *testing.T) {
	b := weightBatch(60000)
	ev, err := compileVecSrc(weightExpr, b.Schema())
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	for run := 0; run < 5; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := evalBatch(ev, b)
		runtime.ReadMemStats(&after)
		if out.At(59999) != value.NewInt(999*2+59999%97+59999%41*5+59999%7*20) {
			t.Fatalf("weight of the last row is %v", out.At(59999))
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("the weight over 60,000 rows allocates %d bytes", least)
	if least > 520000 {
		t.Errorf("the weight over 60,000 rows allocates %d bytes, want at most 520,000", least)
	}
}

// TestBoxedArithAllocs: arithmetic over a boxed column falls back to the
// scalar rules, and writes each morsel's results into the evaluation's
// temporaries, typed as compress types them: qty * 2 and -qty over 30
// morsels allocate as many objects as over one.
func TestBoxedArithAllocs(t *testing.T) {
	allocs := func(src string, n int) float64 {
		v := newVec(anyKind, n)
		for i := range n {
			v.anys[i] = value.NewInt(int64(i % 7))
		}
		b := &Batch{schema: schema.MustFromNames("qty"), cols: []*Vec{v}, length: n}
		ev := compileSize(t, src, b.Schema(), morselRows)
		if k := evalBatch(ev, b).Kind(); k != value.Int {
			t.Fatalf("%s over boxed ints is a %v vector, want int", src, k)
		}
		return testing.AllocsPerRun(5, func() { evalBatch(ev, b) })
	}
	for _, src := range []string{"qty * 2", "-qty"} {
		if one, many := allocs(src, morselRows), allocs(src, 30*morselRows); many != one {
			t.Errorf("%s over a boxed column allocates %.0f objects over 30 morsels, %.0f over one", src, many, one)
		}
	}
}

// BenchmarkMorselSize runs batch_join's weight over 60,000 rows, a
// group-by of 60,000 rows into 500 groups and a join of 60,000 rows with
// 500, each at morsel sizes around morselRows; its numbers are in
// morselRows' comment.
func BenchmarkMorselSize(b *testing.B) {
	batch := weightBatch(60000)
	left, right := joinInputs(60000, 500)
	group := &GroupBy{Keys: []int{0}, Aggs: []Agg{{Op: "sum", Col: 1}}, Out: schema.MustFromNames("k", "total"),
		SortKeys: []table.SortKey{{Column: "k"}}}
	join := innerJoinKX()
	for _, size := range []int{64, 256, 1024, 4096, 16384, whole} {
		name := strconv.Itoa(size)
		if size == whole {
			name = "whole"
		}
		b.Run("weight/"+name, func(b *testing.B) {
			ev := compileSize(b, weightExpr, batch.Schema(), size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				evalBatch(ev, batch)
			}
		})
		b.Run("groupby/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				group.run(left, size)
			}
		})
		b.Run("join/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				one((*Probe)(join), left, right, size)
			}
		})
	}
}
