package colstore

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"shareinsights/internal/expr"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// qc mirrors the property-test configuration used in internal/task:
// enough iterations to explore the space, cheap enough for every run.
var qc = &quick.Config{MaxCount: 100}

// --- Bitmap invariants ---------------------------------------------------

// TestBitmapInvariants drives a bitmap with a random op sequence and
// checks it against a reference set: Get/Count/Indices/Empty must agree
// at every step, and Indices must be ascending.
func TestBitmapInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 137 // crosses a word boundary twice
		b := NewBitmap(n)
		ref := map[int]bool{}
		for _, op := range ops {
			i := int(op>>1) % n
			if op&1 == 0 {
				b.Set(i)
				ref[i] = true
			} else {
				b.Clear(i)
				delete(ref, i)
			}
		}
		if b.Len() != n || b.Count() != len(ref) || b.Empty() != (len(ref) == 0) {
			return false
		}
		idx := b.Indices()
		if len(idx) != len(ref) {
			return false
		}
		for k, i := range idx {
			if !ref[i] || (k > 0 && idx[k-1] >= i) {
				return false
			}
		}
		for i := 0; i < n; i++ {
			if b.Get(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qc); err != nil {
		t.Fatal(err)
	}
}

// TestBitmapSetOps checks And/Or against per-bit boolean logic and that
// Clone is independent of its source.
func TestBitmapSetOps(t *testing.T) {
	f := func(xs, ys []bool) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		a, b := NewBitmap(n), NewBitmap(n)
		for i := 0; i < n; i++ {
			if xs[i] {
				a.Set(i)
			}
			if ys[i] {
				b.Set(i)
			}
		}
		and, or := a.Clone(), a.Clone()
		and.And(b)
		or.Or(b)
		for i := 0; i < n; i++ {
			if and.Get(i) != (xs[i] && ys[i]) || or.Get(i) != (xs[i] || ys[i]) {
				return false
			}
			// Clone must not have fed back into the source.
			if a.Get(i) != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qc); err != nil {
		t.Fatal(err)
	}
}

// --- Row <-> column round trip -------------------------------------------

// mixedTable builds a four-column table (int, float, string, bool) with
// nulls controlled by the mask bytes: bit k of masks[i] nulls column k in
// row i. Row count is the shortest input slice.
func mixedTable(ints []int64, floats []float64, strs []string, bools []bool, masks []byte) *table.Table {
	n := len(ints)
	for _, m := range []int{len(floats), len(strs), len(bools), len(masks)} {
		if m < n {
			n = m
		}
	}
	tb := table.New(schema.MustFromNames("a", "b", "s", "flag"))
	cell := func(v value.V, null bool) value.V {
		if null {
			return value.VNull
		}
		return v
	}
	for i := 0; i < n; i++ {
		f := floats[i]
		switch i % 7 {
		case 3:
			f = math.NaN()
		case 5:
			f = math.Inf(1)
		}
		tb.AppendValues(
			cell(value.NewInt(ints[i]), masks[i]&1 != 0),
			cell(value.NewFloat(f), masks[i]&2 != 0),
			cell(value.NewString(strs[i]), masks[i]&4 != 0),
			cell(value.NewBool(bools[i]), masks[i]&8 != 0),
		)
	}
	return tb
}

// TestRoundTripProperty: FromTable followed by ToTable must reproduce the
// original table exactly, for any mix of kinds and null patterns.
func TestRoundTripProperty(t *testing.T) {
	f := func(ints []int64, floats []float64, strs []string, bools []bool, masks []byte) bool {
		tb := mixedTable(ints, floats, strs, bools, masks)
		b, ok := FromTable(tb)
		if !ok {
			return false
		}
		if b.Len() != tb.Len() {
			return false
		}
		return b.ToTable().Equal(tb)
	}
	if err := quick.Check(f, qc); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripAllNullAndEmpty covers the degenerate shapes the property
// generator rarely hits head-on.
func TestRoundTripAllNullAndEmpty(t *testing.T) {
	empty := table.New(schema.MustFromNames("x", "y"))
	b, ok := FromTable(empty)
	if !ok || b.Len() != 0 || !b.ToTable().Equal(empty) {
		t.Fatalf("empty table did not round-trip")
	}
	nulls := table.New(schema.MustFromNames("x"))
	for i := 0; i < 5; i++ {
		nulls.AppendValues(value.VNull)
	}
	b, ok = FromTable(nulls)
	if !ok || !b.ToTable().Equal(nulls) {
		t.Fatalf("all-null column did not round-trip")
	}
	if b.Col(0).Kind() != value.Null {
		t.Fatalf("all-null column kind = %v, want Null", b.Col(0).Kind())
	}
}

// TestFromTableRejects: Time columns and mixed-kind columns have no
// vector representation and must make FromTable decline (the engine then
// stays on the row path).
func TestFromTableRejects(t *testing.T) {
	tt := table.New(schema.MustFromNames("ts"))
	tt.AppendValues(value.NewTime(time.Unix(0, 0).UTC()))
	if _, ok := FromTable(tt); ok {
		t.Fatalf("FromTable accepted a Time column")
	}
	mixed := table.New(schema.MustFromNames("m"))
	mixed.AppendValues(value.NewInt(1))
	mixed.AppendValues(value.NewString("two"))
	if _, ok := FromTable(mixed); ok {
		t.Fatalf("FromTable accepted a mixed-kind column")
	}
}

// --- Selection vectors ----------------------------------------------------

// TestSelectComposition: selecting twice must equal selecting once with
// the composed index vector, and SelectBitmap must agree with
// Select(Indices()).
func TestSelectComposition(t *testing.T) {
	f := func(ints []int64, floats []float64, strs []string, bools []bool, masks []byte, pick1, pick2 []uint16) bool {
		tb := mixedTable(ints, floats, strs, bools, masks)
		b, ok := FromTable(tb)
		if !ok {
			return false
		}
		if b.Len() == 0 {
			return true
		}
		idx1 := make([]int, len(pick1))
		for i, p := range pick1 {
			idx1[i] = int(p) % b.Len()
		}
		s1 := b.Select(idx1)
		if len(idx1) == 0 {
			return s1.Len() == 0
		}
		idx2 := make([]int, len(pick2))
		composed := make([]int, len(pick2))
		for i, p := range pick2 {
			idx2[i] = int(p) % s1.Len()
			composed[i] = idx1[idx2[i]]
		}
		if !s1.Select(idx2).ToTable().Equal(b.Select(composed).ToTable()) {
			return false
		}
		sel := NewBitmap(b.Len())
		for _, i := range idx1 {
			sel.Set(i)
		}
		return b.SelectBitmap(sel).ToTable().Equal(b.Select(sel.Indices()).ToTable())
	}
	if err := quick.Check(f, qc); err != nil {
		t.Fatal(err)
	}
}

// --- Vectorized expressions vs row expressions ---------------------------

// exprCases is the operator coverage for the differential expression
// property: arithmetic (incl. zero divisors), comparison, logic, string
// ops and membership, over nullable int/float and string/bool columns.
var exprCases = []string{
	"a + b",
	"a * 2 - 1",
	"a % 2",
	"b / a",
	"a / 0",
	"-a",
	"-b",
	"a > b",
	"a >= 1.5",
	"a == b",
	"a != 1",
	"b <= 0.5",
	"not flag",
	"flag and a > 0",
	"a > 1 or b < 0.5",
	"s contains 'ab'",
	"s == 'abc'",
	"s + '!'",
	"a in (1, 2, 3)",
	"s in ('x', 'abc')",
	"(a + 1) * (a - 1)",
}

// TestVecExprMatchesRowExpr is the core equivalence property for the
// vectorized expression compiler: for every supported operator, the
// batch evaluation must produce the same value AND the same kind as the
// row-at-a-time evaluator — kind drift would silently change group-by
// keys downstream.
func TestVecExprMatchesRowExpr(t *testing.T) {
	for _, src := range exprCases {
		src := src
		t.Run(src, func(t *testing.T) {
			f := func(ints []int64, floats []float64, strs []string, bools []bool, masks []byte) bool {
				tb := mixedTable(ints, floats, strs, bools, masks)
				b, ok := FromTable(tb)
				if !ok {
					return false
				}
				rowEv, err := expr.Compile(src, tb.Schema())
				if err != nil {
					t.Fatalf("row compile %q: %v", src, err)
				}
				vecEv, err := CompileVecSrc(src, tb.Schema())
				if err != nil {
					t.Fatalf("vec compile %q: %v", src, err)
				}
				out := vecEv(b)
				if out.Len() != tb.Len() {
					return false
				}
				for i, row := range tb.Rows() {
					want, got := rowEv(row), out.At(i)
					if want.Kind() != got.Kind() || !value.Equal(want, got) {
						t.Logf("row %d: row path %v (%v) vs vec path %v (%v)",
							i, want, want.Kind(), got, got.Kind())
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, qc); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// --- Kernel semantics -----------------------------------------------------

// TestTopNMatchesStableSort checks the heap-based TopN against the
// obvious reference (stable sort, take limit), across ties, nulls and
// both directions.
func TestTopNMatchesStableSort(t *testing.T) {
	f := func(ints []int64, floats []float64, strs []string, bools []bool, masks []byte, limit8 uint8, desc bool) bool {
		tb := mixedTable(ints, floats, strs, bools, masks)
		b, ok := FromTable(tb)
		if !ok {
			return false
		}
		limit := int(limit8%16) + 1
		got, err := (&TopN{Key: 0, Desc: desc, Limit: limit}).Run(b)
		if err != nil {
			return false
		}
		cmp := keyComparator(b.Col(0))
		idx := make([]int, b.Len())
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(x, y int) bool {
			c := cmp(idx[x], idx[y])
			if desc {
				c = -c
			}
			return c < 0
		})
		if limit < len(idx) {
			idx = idx[:limit]
		}
		return got.ToTable().Equal(b.Select(idx).ToTable())
	}
	if err := quick.Check(f, qc); err != nil {
		t.Fatal(err)
	}
}

// TestGroupByNullSemantics pins the row engine's aggregate null
// conventions: sum over an all-null group is Int 0, avg/min/max over an
// all-null group are null, and count counts every row including nulls.
func TestGroupByNullSemantics(t *testing.T) {
	tb := table.New(schema.MustFromNames("k", "v"))
	tb.AppendValues(value.NewString("a"), value.VNull)
	tb.AppendValues(value.NewString("a"), value.VNull)
	tb.AppendValues(value.NewString("b"), value.NewFloat(1.5))
	tb.AppendValues(value.NewString("b"), value.NewFloat(2.5))
	b, ok := FromTable(tb)
	if !ok {
		t.Fatal("FromTable declined")
	}
	k := &GroupBy{
		Keys: []int{0},
		Aggs: []Agg{
			{Op: AggSum, Col: 1},
			{Op: AggAvg, Col: 1},
			{Op: AggMin, Col: 1},
			{Op: AggMax, Col: 1},
			{Op: AggCount, Col: -1},
		},
		Out:      schema.MustFromNames("k", "sum", "avg", "min", "max", "count"),
		SortKeys: []table.SortKey{{Column: "k"}},
	}
	out, err := k.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	res := out.ToTable()
	if res.Len() != 2 {
		t.Fatalf("got %d groups, want 2", res.Len())
	}
	// Group "a": all inputs null.
	if v := res.Cell(0, "sum"); v.Kind() != value.Int || v.Int() != 0 {
		t.Errorf("all-null sum = %v (%v), want Int 0", v, v.Kind())
	}
	for _, col := range []string{"avg", "min", "max"} {
		if v := res.Cell(0, col); v.Kind() != value.Null {
			t.Errorf("all-null %s = %v, want null", col, v)
		}
	}
	if v := res.Cell(0, "count"); v.Int() != 2 {
		t.Errorf("count = %v, want 2 (nulls are counted)", v)
	}
	// Group "b": ordinary float aggregates.
	if v := res.Cell(1, "sum"); v.Float() != 4.0 {
		t.Errorf("sum = %v, want 4", v)
	}
	if v := res.Cell(1, "avg"); v.Float() != 2.0 {
		t.Errorf("avg = %v, want 2", v)
	}
	if v := res.Cell(1, "min"); v.Float() != 1.5 {
		t.Errorf("min = %v, want 1.5", v)
	}
	if v := res.Cell(1, "max"); v.Float() != 2.5 {
		t.Errorf("max = %v, want 2.5", v)
	}
}

// TestGroupByFallback: aggregating sum over a string column has no
// vectorized meaning; the kernel must surface ErrFallback so the engine
// reruns the stage on the row path rather than guessing.
func TestGroupByFallback(t *testing.T) {
	tb := table.New(schema.MustFromNames("k", "v"))
	tb.AppendValues(value.NewString("a"), value.NewString("x"))
	b, ok := FromTable(tb)
	if !ok {
		t.Fatal("FromTable declined")
	}
	k := &GroupBy{
		Keys: []int{0},
		Aggs: []Agg{{Op: AggSum, Col: 1}},
		Out:  schema.MustFromNames("k", "sum"),
	}
	if _, err := k.Run(b); err != ErrFallback {
		t.Fatalf("err = %v, want ErrFallback", err)
	}
}

// TestFilterKernel: the filter kernel must keep exactly the rows whose
// predicate is truthy, in input order.
func TestFilterKernel(t *testing.T) {
	f := func(ints []int64, floats []float64, strs []string, bools []bool, masks []byte) bool {
		tb := mixedTable(ints, floats, strs, bools, masks)
		b, ok := FromTable(tb)
		if !ok {
			return false
		}
		const src = "a > 0 and flag"
		pred, err := CompileVecSrc(src, tb.Schema())
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&Filter{Pred: pred}).Run(b)
		if err != nil {
			return false
		}
		rowEv, err := expr.Compile(src, tb.Schema())
		if err != nil {
			t.Fatal(err)
		}
		want := table.New(tb.Schema())
		for _, row := range tb.Rows() {
			if rowEv(row).Truthy() {
				want.Append(row)
			}
		}
		return got.ToTable().Equal(want)
	}
	if err := quick.Check(f, qc); err != nil {
		t.Fatal(err)
	}
}

// TestFilterSharesAnAllPassInput: a filter every row passes returns its
// input batch itself (no selection vector, no gather — a pushed-down
// predicate re-applied to what the decoder kept is exactly this), and any
// other a fresh batch that leaves the input as it was.
func TestFilterSharesAnAllPassInput(t *testing.T) {
	tb := mixedTable([]int64{5, 3, 9}, []float64{.5, 1.5, 2.5}, []string{"a", "b", "a"}, []bool{true, true, true}, []byte{0, 0, 0})
	b, _ := FromTable(tb)
	for src, same := range map[string]bool{"a > 0": true, "a > 3": false, "a > 9": false} {
		pred, err := CompileVecSrc(src, tb.Schema())
		if err != nil {
			t.Fatal(err)
		}
		out, err := (&Filter{Pred: pred}).Run(b)
		if err != nil {
			t.Fatal(err)
		}
		if (out == b) != same {
			t.Errorf("%s: output is the input batch = %v, want %v", src, out == b, same)
		}
		if !b.ToTable().Equal(tb) {
			t.Errorf("%s: the input batch changed", src)
		}
	}
}

// --- Column-backed tables ---------------------------------------------------

// TestSharedColumnBackedTable has eight readers use one column-backed
// table at once — rows, fingerprint and kernels over its batch — as
// cache entries, last-good snapshots and fan-out nodes do. Whichever
// reader triggers the row view, all must see the reference answers. It
// runs once over the vectors a conversion produces and once over the
// Builder's, whose string column is dictionary-coded: every reader then
// reads the one shared dictionary. Run with -race -count=10 (CI does).
func TestSharedColumnBackedTable(t *testing.T) {
	src := mixedTable(
		[]int64{5, 3, 9, 3, 7, 1, 9, 2}, []float64{.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5},
		[]string{"a", "b", "a", "c", "b", "a", "c", "c"}, []bool{true, false, true, true, false, false, true, false},
		[]byte{0, 1, 0, 2, 0, 4, 0, 8})
	wantBatch, _ := FromTable(src)
	if built, _ := FromTable(rebuilt(src)); built.Col(2).dict == nil || wantBatch.Col(2).dict != nil {
		t.Fatal("want the built string column dictionary-coded and the converted one plain")
	}
	kernels := []Kernel{
		&TopN{Key: 0, Limit: 3},
		&Sort{Keys: []table.SortKey{{Column: "s", Desc: true}, {Column: "a"}}},
	}
	want := make([]*table.Table, len(kernels))
	for i, ker := range kernels {
		out, err := ker.Run(wantBatch)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out.ToTable()
	}
	for name, shared := range map[string]*table.Table{"plain": wantBatch.ToTable(), "dictionary": rebuilt(src)} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for step := 0; step < 3; step++ {
					switch (g + step) % 3 {
					case 0:
						if !shared.Equal(src) {
							t.Errorf("%s reader %d: rows differ from the source", name, g)
						}
					case 1:
						if got, want := shared.Fingerprint(), src.Fingerprint(); got != want {
							t.Errorf("%s reader %d: fingerprint %s, want %s", name, g, got, want)
						}
					case 2:
						b, ok := FromTable(shared.CloneShallow())
						if !ok {
							t.Errorf("%s reader %d: shared table does not convert", name, g)
							return
						}
						for i, ker := range kernels {
							out, err := ker.Run(b)
							if err != nil || !out.ToTable().Equal(want[i]) {
								t.Errorf("%s reader %d: kernel %T result differs (err %v)", name, g, ker, err)
							}
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestColumnBackedMutationTakesOwnership: Append and Sort on a
// column-backed table detach it from its vectors (which clones share),
// so the clone keeps the original content and the mutated table no
// longer hands out a stale batch.
func TestColumnBackedMutationTakesOwnership(t *testing.T) {
	src := mixedTable([]int64{3, 1, 2}, []float64{1, 2, 3}, []string{"x", "y", "z"}, []bool{true, false, true}, []byte{0, 0, 0})
	for name, mutate := range map[string]func(*table.Table){
		"sort":   func(tb *table.Table) { _ = tb.Sort(table.SortKey{Column: "a"}) },
		"append": func(tb *table.Table) { tb.Append(src.Row(0)) },
	} {
		owned := rebuilt(src)
		snap := owned.CloneShallow()
		mutate(owned)
		if owned.Columns() != nil {
			t.Errorf("%s: table still column-backed after mutation", name)
		}
		if !snap.Equal(src) || snap.Fingerprint() != src.Fingerprint() {
			t.Errorf("%s: mutation leaked into the shallow clone", name)
		}
		want := src.Clone()
		mutate(want)
		if !owned.Equal(want) || owned.Fingerprint() != want.Fingerprint() || owned.Len() != want.Len() {
			t.Errorf("%s: mutated column-backed table differs from the mutated row table", name)
		}
	}
}

// TestFingerprintAllocs: hashing is O(1) allocations however many cells
// the table holds, in both layouts (it was one per cell, two per string).
func TestFingerprintAllocs(t *testing.T) {
	const rows = 1000
	ints, floats, strs, bools, masks := make([]int64, rows), make([]float64, rows), make([]string, rows), make([]bool, rows), make([]byte, rows)
	for i := range ints {
		ints[i], floats[i], strs[i], masks[i] = int64(i), float64(i)/3, strconv.Itoa(i), byte(i%16)
	}
	src := mixedTable(ints, floats, strs, bools, masks)
	for name, tb := range map[string]*table.Table{"row-backed": src, "column-backed": rebuilt(src)} {
		if n := testing.AllocsPerRun(10, func() { tb.Fingerprint() }); n > 8 {
			t.Errorf("%s: Fingerprint of %d rows allocates %.0f times, want a constant few", name, rows, n)
		}
	}
}
