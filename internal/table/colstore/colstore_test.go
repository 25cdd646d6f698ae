package colstore

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// stableSorted is the sort oracle: t's rows, stably sorted by keys
// under value.Compare, as a new row-backed table.
func stableSorted(t *table.Table, keys ...table.SortKey) *table.Table {
	rows := slices.Clone(t.Rows())
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range keys {
			c := t.Schema().Index(k.Column)
			if d := value.Compare(rows[a][c], rows[b][c]); d != 0 {
				return (d < 0) != k.Desc
			}
		}
		return false
	})
	out, _ := table.FromRows(t.Schema(), rows)
	return out
}

// qc mirrors the property-test configuration used in internal/task:
// enough iterations to explore the space, cheap enough for every run.
var qc = &quick.Config{MaxCount: 100}

// --- Null masks and selection set operations -----------------------------

// TestBitmapInvariants drives a null mask with a random sequence of set
// bits and checks it against a reference set: Get and Empty must agree at
// every step, a vector over the mask must report nulls exactly when the
// set is non-empty, and the selection a filter builds from the same
// positions (kept) must list exactly them, ascending.
func TestBitmapInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 137 // crosses a word boundary twice
		b := NewBitmap(n)
		ref := map[int]bool{}
		for _, op := range ops {
			i := int(op) % n
			b.Set(i)
			ref[i] = true
			if !b.Get(i) || b.Empty() {
				return false
			}
		}
		v := &Vec{kind: value.Int, ints: make([]int64, n), nulls: b, length: n}
		if b.Empty() != (len(ref) == 0) || v.hasNulls() != (len(ref) > 0) {
			return false
		}
		idx := kept(nil, b, n)
		if idx == nil {
			idx = identity(n) // kept's "every row passes"
		}
		if len(idx) != len(ref) {
			return false
		}
		for k, i := range idx {
			if !ref[int(i)] || (k > 0 && idx[k-1] >= i) {
				return false
			}
		}
		for i := 0; i < n; i++ {
			if b.Get(i) != ref[i] || v.null(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qc); err != nil {
		t.Fatal(err)
	}
}

// TestSelectionSetOps: selections compose into the set operations the
// selection bitmap used to provide. Filtering by x and then by y keeps
// exactly the rows of `x and y` — an intersection through a composed
// selection — filtering by `x or y` keeps the union, and no selection
// changes the batch it was taken from.
func TestSelectionSetOps(t *testing.T) {
	f := func(xs, ys []bool) bool {
		n := min(len(xs), len(ys))
		tb := table.New(schema.MustFromNames("x", "y", "i"))
		for i := 0; i < n; i++ {
			tb.AppendValues(value.NewBool(xs[i]), value.NewBool(ys[i]), value.NewInt(int64(i)))
		}
		b, _ := FromTable(tb)
		filter := func(in *Batch, src string) *Batch {
			pred, err := compileVecSrc(src, tb.Schema())
			if err != nil {
				t.Fatal(err)
			}
			out, err := (&Filter{Pred: pred}).Run(in)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		rows := func(out *Batch) map[int64]bool {
			got := map[int64]bool{}
			for r := 0; r < out.Len(); r++ {
				got[out.Col(2).At(r).Int()] = true
			}
			return got
		}
		and, both, or := rows(filter(filter(b, "x"), "y")), rows(filter(b, "x and y")), rows(filter(b, "x or y"))
		for i := 0; i < n; i++ {
			if and[int64(i)] != (xs[i] && ys[i]) || both[int64(i)] != (xs[i] && ys[i]) || or[int64(i)] != (xs[i] || ys[i]) {
				return false
			}
		}
		return len(and) == len(both) && b.ToTable().Equal(tb)
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

// TestFromTableBoxes: a time column, and a column that mixes kinds, box
// at their first time cell or second kind — their cells, nulls among
// them, round-trip through At — and the kind-uniform columns beside them
// stay typed.
func TestFromTableBoxes(t *testing.T) {
	tb := table.New(schema.MustFromNames("ts", "m", "i"))
	cells := [][3]value.V{
		{value.VNull, value.NewInt(1), value.NewInt(7)},
		{value.NewTime(time.Unix(0, 0).UTC()), value.VNull, value.VNull},
		{value.NewTime(time.Unix(60, 0).UTC()), value.NewString("two"), value.NewInt(9)},
		{value.VNull, value.NewFloat(2.5), value.NewInt(-1)},
	}
	for _, r := range cells {
		tb.AppendValues(r[:]...)
	}
	b, ok := FromTable(tb)
	if !ok {
		t.Fatal("FromTable declined")
	}
	for c, want := range []value.Kind{anyKind, anyKind, value.Int} {
		if k := b.Col(c).Kind(); k != want {
			t.Errorf("column %d kind %v, want %v", c, k, want)
		}
	}
	for i, r := range cells {
		for c, want := range r {
			if got := b.Col(c).At(i); got.Kind() != want.Kind() || !value.Equal(got, want) {
				t.Errorf("row %d column %d: %v (%v), want %v (%v)", i, c, got, got.Kind(), want, want.Kind())
			}
		}
	}
}

// --- Selection vectors ----------------------------------------------------

// TestSelectComposition: selecting twice must equal selecting once with
// the composed index vector, read through the selections or gathered,
// and the selection a filter builds from a set of positions (kept) must
// be those positions ascending.
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
		idx1 := make([]int32, len(pick1))
		for i, p := range pick1 {
			idx1[i] = int32(int(p) % b.Len())
		}
		s1 := b.selectRows(idx1)
		if len(idx1) == 0 {
			return s1.Len() == 0
		}
		idx2 := make([]int32, len(pick2))
		composed := make([]int32, len(pick2))
		for i, p := range pick2 {
			idx2[i] = int32(int(p) % s1.Len())
			composed[i] = idx1[idx2[i]]
		}
		twice := s1.selectRows(idx2).ToTable()
		if !twice.Equal(b.selectRows(composed).ToTable()) || !twice.Equal(b.gatherRows(composed).ToTable()) {
			return false
		}
		keep := NewBitmap(b.Len())
		for _, i := range idx1 {
			keep.Set(int(i))
		}
		sel := kept(nil, keep, b.Len())
		if sel == nil {
			sel = identity(b.Len())
		}
		want := slices.Clone(idx1)
		slices.Sort(want)
		want = slices.Compact(want)
		return slices.Equal(sel, want) && b.selectRows(sel).ToTable().Equal(b.gatherRows(want).ToTable())
	}
	if err := quick.Check(f, qc); err != nil {
		t.Fatal(err)
	}
}

// --- Vectorized expressions vs row expressions ---------------------------

// exprCases is the operator coverage for the differential expression
// property: arithmetic (incl. zero divisors), comparison, logic, string
// ops and membership, over nullable int/float and string/bool columns,
// and chains that reuse an operator's vector.
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
	// A result written into an operand's vector: nulls and the zero
	// payload of a null must not leak into the next operator.
	"a * 3 / 0 + 1",
	"(a + 1) % a * 2 - a",
}

// TestVecExprMatchesRowExpr is the core equivalence property for the
// vectorized expression compiler: for every supported operator, the
// batch evaluation must produce the same value AND the same kind as the
// rows' own evaluation, their cells boxed (boxedRows) — kind drift would
// silently change group-by keys downstream, and a pushed predicate, which
// reads the rows so, must keep what the pipeline's filter keeps. The
// enginetest reference holds both to SEMANTICS.md §4–5.
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
				rowVals := boxedRows(t, src, tb, 64)
				vecEv, err := compileVecSrc(src, tb.Schema())
				if err != nil {
					t.Fatalf("vec compile %q: %v", src, err)
				}
				out := evalBatch(vecEv, b)
				if out.Len() != tb.Len() {
					return false
				}
				for i := range tb.Rows() {
					want, got := rowVals[i], out.At(i)
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
		got, err := (&TopN{Keys: []table.SortKey{{Column: b.Schema().Col(0).Name, Desc: desc}}, Limit: limit}).Run(b)
		if err != nil {
			return false
		}
		cmp := keyComparator(b.Col(0))
		idx := identity(b.Len())
		sort.SliceStable(idx, func(x, y int) bool {
			c := cmp(int(idx[x]), int(idx[y]))
			if desc {
				c = -c
			}
			return c < 0
		})
		if limit < len(idx) {
			idx = idx[:limit]
		}
		return got.ToTable().Equal(b.gatherRows(idx).ToTable())
	}
	if err := quick.Check(f, qc); err != nil {
		t.Fatal(err)
	}
}

// TestTopNNaNKeys: NaN compares equal to every float, so a key column
// holding one is no strict weak order, and a heap's choice need not be
// the stable sort's prefix. TopN must still return exactly the first
// Limit rows of the stable sort the row top-n runs, over one key and two.
func TestTopNNaNKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40) + 2
		tb := table.New(schema.MustFromNames("f", "i"))
		for i := 0; i < n; i++ {
			f := float64(rng.Intn(5))
			if rng.Intn(4) == 0 {
				f = math.NaN()
			}
			tb.AppendValues(value.NewFloat(f), value.NewInt(int64(rng.Intn(3))))
		}
		b, _ := FromTable(tb)
		keys := []table.SortKey{{Column: "f", Desc: trial%2 == 0}, {Column: "i"}}[:1+trial%3/2]
		limit := rng.Intn(n)
		got, err := (&TopN{Keys: keys, Limit: limit}).Run(b)
		if err != nil || !sameCells(got.ToTable(), stableSorted(tb, keys...).Select(identity(limit))) {
			t.Fatalf("top %d by %v of %d rows differs from the stable sort's prefix (err %v)", limit, keys, n, err)
		}
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
			{Op: "sum", Col: 1},
			{Op: "avg", Col: 1},
			{Op: "min", Col: 1},
			{Op: "max", Col: 1},
			{Op: "count", Col: -1},
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

// TestFilterKernel: the filter kernel must keep exactly the rows whose
// predicate is truthy over their boxed cells, in input order.
func TestFilterKernel(t *testing.T) {
	f := func(ints []int64, floats []float64, strs []string, bools []bool, masks []byte) bool {
		tb := mixedTable(ints, floats, strs, bools, masks)
		b, ok := FromTable(tb)
		if !ok {
			return false
		}
		const src = "a > 0 and flag"
		pred, err := compileVecSrc(src, tb.Schema())
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&Filter{Pred: pred}).Run(b)
		if err != nil {
			return false
		}
		rowVals := boxedRows(t, src, tb, 64)
		want := table.New(tb.Schema())
		for i, row := range tb.Rows() {
			if rowVals[i].Truthy() {
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
		pred, err := compileVecSrc(src, tb.Schema())
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
// table at once — rows, fingerprint and kernels (top-n, sort, group-by,
// filter) over its batch — as cache entries, last-good snapshots and
// fan-out nodes do. Every reader that asks for rows builds its own, and
// all must see the reference answers. It runs over the vectors a
// conversion produces, over the Builder's, whose string column is
// dictionary-coded (every reader then reads the one shared dictionary),
// and over selections — a kernel's output, every column read through one
// shared index vector.
// Run with -race -count=10 (CI does).
func TestSharedColumnBackedTable(t *testing.T) {
	src := mixedTable(
		[]int64{5, 3, 9, 3, 7, 1, 9, 2}, []float64{.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5},
		[]string{"a", "b", "a", "c", "b", "a", "c", "c"}, []bool{true, false, true, true, false, false, true, false},
		[]byte{0, 1, 0, 2, 0, 4, 0, 8})
	wantBatch, _ := FromTable(src)
	if built, _ := FromTable(rebuilt(src)); built.Col(2).dict == nil || wantBatch.Col(2).dict != nil {
		t.Fatal("want the built string column dictionary-coded and the converted one plain")
	}
	pred, err := compileVecSrc("a * 2 > 4 or s == 'c'", src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	kernels := []Kernel{
		&TopN{Keys: []table.SortKey{{Column: "a"}}, Limit: 3},
		&Sort{Keys: []table.SortKey{{Column: "s", Desc: true}, {Column: "a"}}},
		&GroupBy{Keys: []int{2}, Aggs: []Agg{{Op: "sum", Col: 0}, {Op: "max", Col: 1}, {Op: "count", Col: -1}},
			Out: schema.MustFromNames("s", "sum", "max", "n"), SortKeys: []table.SortKey{{Column: "s"}}},
		&Filter{Pred: pred},
	}
	want := make([]*table.Table, len(kernels))
	for i, ker := range kernels {
		out, err := ker.Run(wantBatch)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out.ToTable()
	}
	// The rows reversed into vectors of their own, then selected back.
	coded, _ := FromTable(rebuilt(src))
	back := identity(src.Len())
	slices.Reverse(back)
	selected := coded.gatherRows(back).selectRows(back).ToTable()
	for name, shared := range map[string]*table.Table{"plain": wantBatch.ToTable(), "dictionary": rebuilt(src), "selection": selected} {
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
						b, ok := FromTable(shared)
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

// TestColumnBackedTableRefusesAppend: a column-backed table is immutable
// once built. Append panics on it, as on a wrong arity, and leaves it as
// it was.
func TestColumnBackedTableRefusesAppend(t *testing.T) {
	src := mixedTable([]int64{3, 1, 2}, []float64{1, 2, 3}, []string{"x", "y", "z"}, []bool{true, false, true}, []byte{0, 0, 0})
	tb := rebuilt(src)
	defer func() {
		if recover() == nil {
			t.Fatal("Append to a column-backed table did not panic")
		}
		if tb.Columns() == nil || !tb.Equal(src) {
			t.Error("the refused Append changed the table")
		}
	}()
	tb.Append(src.Row(0))
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
