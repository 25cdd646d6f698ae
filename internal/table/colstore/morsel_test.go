package colstore

import (
	"math"
	"runtime"
	"strconv"
	"testing"

	"shareinsights/internal/expr"
	"shareinsights/internal/schema"
	"shareinsights/internal/value"
)

// compileVecSrc parses src and compiles it with CompileVec.
func compileVecSrc(src string, s *schema.Schema) (VecEval, error) {
	n, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileVec(n, s)
}

// bindRowSrc parses src and binds it for the row evaluator.
func bindRowSrc(src string, s *schema.Schema) (expr.Eval, error) {
	n, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	return n.Bind(s)
}

// whole is a morsel size no batch reaches: the batch in one morsel.
const whole = math.MaxInt

// compileSize compiles src to an evaluator that runs size rows at a time.
func compileSize(t testing.TB, src string, s *schema.Schema, size int) VecEval {
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
			want := compileSize(t, src, b.Schema(), whole)(b)
			for _, size := range []int{64, 1024} {
				got := compileSize(t, src, b.Schema(), size)(b)
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
		out := ev(b)
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

// BenchmarkMorselSize evaluates batch_join's weight over 60,000 rows at
// morsel sizes around morselRows; its numbers are in morselRows' comment.
func BenchmarkMorselSize(b *testing.B) {
	batch := weightBatch(60000)
	for _, size := range []int{64, 256, 1024, 4096, 16384, whole} {
		name := strconv.Itoa(size)
		if size == whole {
			name = "whole"
		}
		b.Run(name, func(b *testing.B) {
			ev := compileSize(b, weightExpr, batch.Schema(), size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev(batch)
			}
		})
	}
}
