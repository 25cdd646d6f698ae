package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// keyTable builds a six-column table whose first four columns are join
// keys of each kind drawn from small domains (so keys repeat and keys
// miss), with nulls, NaN and both zeros among them; v numbers the rows
// and z is null throughout.
func keyTable(rng *rand.Rand, n int) *table.Table {
	tb := table.New(schema.MustFromNames("i", "f", "s", "b", "v", "z"))
	floats := []float64{0, math.Copysign(0, -1), 1, 1.5, math.NaN(), math.Inf(1)}
	strs := []string{"", "a", "b", "a\x00b", "1"}
	cell := func(v value.V) value.V {
		if rng.Intn(6) == 0 {
			return value.VNull
		}
		return v
	}
	for r := 0; r < n; r++ {
		tb.AppendValues(
			cell(value.NewInt(int64(rng.Intn(4)))),
			cell(value.NewFloat(floats[rng.Intn(len(floats))])),
			cell(value.NewString(strs[rng.Intn(len(strs))])),
			cell(value.NewBool(rng.Intn(2) == 0)),
			value.NewInt(int64(r)),
			value.VNull,
		)
	}
	return tb
}

// refKey is the row engine's key identity: kind byte plus display form
// per key cell.
func refKey(r table.Row, keys []int) string {
	var buf []byte
	for _, k := range keys {
		buf = append(buf, byte(r[k].Kind()))
		buf = r[k].AppendTo(buf)
		buf = append(buf, 0xFE)
	}
	return string(buf)
}

// refJoin is the join by definition: nested loops in the row join's
// output order.
func refJoin(k *Join, left, right *table.Table) *table.Table {
	out := table.New(k.Out)
	emit := func(l, r table.Row) {
		row := make(table.Row, len(k.Cols))
		for i, c := range k.Cols {
			src := l
			if c.Right {
				src = r
			}
			if src != nil {
				row[i] = src[c.Col]
			}
		}
		out.Append(row)
	}
	matched := make([]bool, right.Len())
	for _, l := range left.Rows() {
		any := false
		for ri, r := range right.Rows() {
			if refKey(l, k.LeftKeys) == refKey(r, k.RightKeys) {
				any, matched[ri] = true, true
				emit(l, r)
			}
		}
		if !any && k.KeepLeft {
			emit(l, nil)
		}
	}
	if k.KeepRight {
		for ri, r := range right.Rows() {
			if !matched[ri] {
				emit(nil, r)
			}
		}
	}
	return out
}

// sameCells reports whether two tables hold identical cells: same kinds,
// same payloads (NaN equal to NaN), same order.
func sameCells(a, b *table.Table) bool {
	if !a.Schema().Equal(b.Schema()) || a.Len() != b.Len() {
		return false
	}
	for i, r := range a.Rows() {
		for j, x := range r {
			y := b.At(i, j)
			if x.Kind() != y.Kind() || x.String() != y.String() {
				return false
			}
		}
	}
	return true
}

// TestJoinMatchesDefinition checks the kernel against nested loops for
// every condition, every key kind, two-column keys and keys whose kinds
// differ across the sides, over plain and dictionary-coded inputs and
// over empty sides.
func TestJoinMatchesDefinition(t *testing.T) {
	out := schema.MustFromNames("li", "ls", "lv", "rf", "rs", "rv")
	cols := []JoinCol{{Col: 0}, {Col: 2}, {Col: 4}, {Right: true, Col: 1}, {Right: true, Col: 2}, {Right: true, Col: 4}}
	keySets := [][2][]int{
		{{0}, {0}}, {{1}, {1}}, {{2}, {2}}, {{3}, {3}}, // int, float, string, bool
		{{0, 2}, {0, 2}}, {{2, 3}, {2, 3}}, // two columns
		{{0}, {1}}, {{2}, {0}}, // kinds differ: never match, except null with null
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ln, rn := rng.Intn(40), rng.Intn(25)
		if seed == 0 {
			ln = 0
		}
		if seed == 1 {
			rn = 0
		}
		lt, rt := keyTable(rng, ln), keyTable(rng, rn)
		for _, coded := range []bool{false, true} {
			lsrc, rsrc := lt, rt
			if coded {
				lsrc, rsrc = rebuilt(lt), rebuilt(rt)
			}
			lb, lok := FromTable(lsrc)
			rb, rok := FromTable(rsrc)
			if !lok || !rok {
				t.Fatal("key tables must convert")
			}
			for _, ks := range keySets {
				for cond := 0; cond < 4; cond++ {
					k := &Join{LeftKeys: ks[0], RightKeys: ks[1], KeepLeft: cond&1 != 0, KeepRight: cond&2 != 0, Cols: cols, Out: out}
					got, err := one((*Probe)(k), lb, rb, morselRows)
					if err != nil {
						t.Fatal(err)
					}
					if want := refJoin(k, lt, rt); !sameCells(got.ToTable(), want) {
						t.Fatalf("seed %d coded=%v keys %v keepL=%v keepR=%v:\ngot:\n%s\nwant:\n%s", seed, coded, ks,
							k.KeepLeft, k.KeepRight, got.ToTable().Format(0), want.Format(0))
					}
				}
			}
		}
	}
}

// TestSortMatchesStableSort checks the permutation sort against
// sort.SliceStable under value.Compare: multi-key, mixed directions,
// ties, nulls and NaN, plain and dictionary-coded.
func TestSortMatchesStableSort(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := keyTable(rng, rng.Intn(60))
		names := src.Schema().Names()
		var keys []table.SortKey
		for _, c := range rng.Perm(4)[:1+rng.Intn(3)] {
			keys = append(keys, table.SortKey{Column: names[c], Desc: rng.Intn(2) == 0})
		}
		want := stableSorted(src, keys...)
		for _, in := range []*table.Table{src, rebuilt(src)} {
			b, _ := FromTable(in)
			got, err := (&Sort{Keys: keys}).Run(b)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCells(got.ToTable(), want) {
				t.Fatalf("seed %d keys %v:\ngot:\n%s\nwant:\n%s", seed, keys, got.ToTable().Format(0), want.Format(0))
			}
		}
	}
	b, _ := FromTable(keyTable(rand.New(rand.NewSource(1)), 5))
	if _, err := (&Sort{Keys: []table.SortKey{{Column: "nope"}}}).Run(b); err == nil {
		t.Error("sort by a missing column: no error")
	}
}

func TestLimit(t *testing.T) {
	src := keyTable(rand.New(rand.NewSource(3)), 10)
	b, _ := FromTable(rebuilt(src))
	for _, n := range []int{0, 1, 9, 10, 11} {
		got, err := (&Limit{N: n}).Run(b)
		if err != nil {
			t.Fatal(err)
		}
		if head := src.Select(identity(min(n, src.Len()))); !sameCells(got.ToTable(), head) {
			t.Errorf("limit %d: got %d rows, want the first %d", n, got.Len(), head.Len())
		}
	}
}

// joinInputs builds a probe side of n rows over keys distinct key
// strings and a build side holding each key once.
func joinInputs(n, keys int) (left, right *Batch) {
	lb := NewBuilder(schema.MustFromNames("k", "x"))
	for i := 0; i < n; i++ {
		lb.Append([]value.V{value.NewString("key" + strconv.Itoa((i*7)%keys)), value.NewInt(int64(i))})
	}
	rb := NewBuilder(schema.MustFromNames("k", "y"))
	for i := 0; i < keys; i++ {
		rb.Append([]value.V{value.NewString("key" + strconv.Itoa(i)), value.NewFloat(float64(i))})
	}
	left, _ = FromTable(lb.Table())
	right, _ = FromTable(rb.Table())
	return left, right
}

func innerJoinKX() *Join {
	return &Join{LeftKeys: []int{0}, RightKeys: []int{0}, Out: schema.MustFromNames("k", "x", "y"),
		Cols: []JoinCol{{Col: 0}, {Col: 1}, {Right: true, Col: 1}}}
}

// TestJoinAllocs: the join allocates index vectors, chains and output
// vectors — a number of objects that does not depend on the row count —
// and of the probe side's rows nothing but the output's index pair and
// one morsel of key ids: its bytes are the pair (each rounded up to the
// allocator's 8 KiB pages), the build side at 128 bytes a key (ids,
// chains, heads, counts, the code table and the map) and a morsel,
// within 4 KiB.
func TestJoinAllocs(t *testing.T) {
	const bound, keys = 30, 100
	for _, n := range []int{1000, 10000, 60000} {
		left, right := joinInputs(n, keys)
		k := innerJoinKX()
		if got := testing.AllocsPerRun(5, func() {
			if out, err := one((*Probe)(k), left, right, morselRows); err != nil || out.Len() != n {
				t.Fatalf("join: %v rows, err %v", out.Len(), err)
			}
		}); got > bound {
			t.Errorf("inner join %d x %d allocates %.0f objects, want at most %d at any row count", n, keys, got, bound)
		}
		least := uint64(math.MaxUint64)
		for run := 0; run < 5; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			one((*Probe)(k), left, right, morselRows)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if want := 2*((4*n+8191)&^8191) + 128*keys + 4*min(n, morselRows) + 4<<10; least > uint64(want) {
			t.Errorf("inner join %d x %d allocates %d bytes, want at most %d", n, keys, least, want)
		}
	}
}

// TestFusedJoinAllocs: a probe with a filter step after it, run into
// Materialize, allocates a number of objects that does not depend on the
// row count, and of the probe side's rows nothing but a morsel each of key
// ids, joined rows, kept rows, the predicate's bitmap and temporaries, and
// the output's index pair sized exactly to the kept rows — no kept-row
// list, and no index vector composed through it: its bytes are those
// (each index vector rounded up to the allocator's 8 KiB pages) and the
// build side at 128 bytes a key, within the bound a whole-batch bitmap
// once needed.
func TestFusedJoinAllocs(t *testing.T) {
	const keys = 100
	k := innerJoinKX()
	pred, err := compileVecSrc("x % 3 == 0", k.Out)
	if err != nil {
		t.Fatal(err)
	}
	f := &Fan{Chain: []Kernel{(*Probe)(k), &Filter{Pred: pred}}, Sinks: []Kernel{Materialize}}
	fused := func(left, right *Batch) (*Batch, int, error) {
		outs, stages, err := f.Must(left, right)
		if err != nil {
			return nil, 0, err
		}
		return outs[0], stages[1].Rows, nil
	}
	objects := map[int]float64{}
	for _, n := range []int{1000, 60000} {
		left, right := joinInputs(n, keys)
		kept := (n + 2) / 3
		objects[n] = testing.AllocsPerRun(5, func() {
			out, joined, err := fused(left, right)
			if err != nil || out.Len() != kept || joined != n {
				t.Fatalf("fused join: %d rows of %d joined, want %d of %d; err %v", out.Len(), joined, kept, n, err)
			}
			for _, c := range []int{0, 2} {
				if sel := out.Col(c).sel; len(sel) != kept || cap(sel) != kept {
					t.Fatalf("column %d's index vector holds %d of %d slots, want exactly %d", c, len(sel), cap(sel), kept)
				}
			}
		})
	}
	if objects[1000] != objects[60000] {
		t.Errorf("the fused join allocates %.0f objects over 1,000 rows and %.0f over 60,000", objects[1000], objects[60000])
	}
	const n = 60000
	left, right := joinInputs(n, keys)
	least := uint64(math.MaxUint64)
	for run := 0; run < 5; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fused(left, right)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	pages := func(bytes int) int { return (bytes + 8191) &^ 8191 }
	// The morsel's ids (4 bytes a row), x % 3 (8) and its comparison (1).
	if want := pages(n/8) + 2*pages(4*(n+2)/3) + 128*keys + (4+8+1)*morselRows + 4<<10; least > uint64(want) {
		t.Errorf("the fused join allocates %d bytes, want at most %d", least, want)
	}
}

// TestGroupByAllocs: the group-by allocates a number of objects that does
// not depend on the row count, and of its rows nothing but one morsel of
// group ids: at 60,000 rows its bytes are its output (the groups' key
// codes, sums and counts, unordered and ordered, the sort permutation and
// each group's first row), its key index at 96 bytes a key and a morsel,
// within 16 KiB.
func TestGroupByAllocs(t *testing.T) {
	const keys = 500
	k := &GroupBy{Keys: []int{0}, Aggs: []Agg{{Op: "sum", Col: 1}, {Op: "count", Col: -1}},
		Out: schema.MustFromNames("k", "total", "n"), SortKeys: []table.SortKey{{Column: "k"}}}
	objects := map[int]float64{}
	for _, n := range []int{1000, 60000} {
		in, _ := joinInputs(n, keys)
		objects[n] = testing.AllocsPerRun(5, func() {
			if out, err := k.Run(in); err != nil || out.Len() != keys {
				t.Fatalf("group-by: %v groups, err %v", out.Len(), err)
			}
		})
	}
	if objects[1000] != objects[60000] {
		t.Errorf("the group-by allocates %.0f objects over 1,000 rows and %.0f over 60,000", objects[1000], objects[60000])
	}
	in, _ := joinInputs(60000, keys)
	least := uint64(math.MaxUint64)
	for run := 0; run < 5; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		k.Run(in)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	output := keys * (2*(4+8+8) + 4 + 4)
	if want := output + 96*keys + 4*morselRows + 16<<10; least > uint64(want) {
		t.Errorf("the group-by over 60,000 rows allocates %d bytes, want at most %d", least, want)
	}
}

// TestKeylessGroupBy: a group-by with no keys folds every row under the
// one empty key, over more than one morsel: one group over a non-empty
// batch, none over an empty one.
func TestKeylessGroupBy(t *testing.T) {
	k := &GroupBy{Aggs: []Agg{{Op: "sum", Col: 0}, {Op: "count", Col: -1}}, Out: schema.MustFromNames("total", "n")}
	tb := table.New(schema.MustFromNames("x"))
	for i := 1; i <= 3000; i++ {
		tb.AppendValues(value.NewInt(int64(i)))
	}
	for _, tc := range []struct {
		in   *table.Table
		want [][2]string
	}{{tb, [][2]string{{"4501500", "3000"}}}, {table.New(tb.Schema()), nil}} {
		b, _ := FromTable(tc.in)
		out, err := k.Run(b)
		if err != nil || out.Len() != len(tc.want) {
			t.Fatalf("%d rows: %v groups, err %v; want %d", tc.in.Len(), out.Len(), err, len(tc.want))
		}
		for g, want := range tc.want {
			if got := [2]string{out.At(g, 0).String(), out.At(g, 1).String()}; got != want {
				t.Errorf("%d rows: group %d is %v, want %v", tc.in.Len(), g, got, want)
			}
		}
	}
}

// TestKeyIndexKeepsResolvedCodes: a coded key column whose dictionary
// grows between batches — a streamed decode's, copied when it outgrows
// its capacity — keeps the ids its codes resolved to, and looks up only
// its new codes; a dictionary that does not start with the one before
// resolves afresh.
func TestKeyIndexKeepsResolvedCodes(t *testing.T) {
	s := schema.MustFromNames("k")
	coded := func(dict []string, codes ...uint32) *Batch {
		return &Batch{schema: s, cols: []*Vec{{kind: value.String, dict: dict, codes: codes, length: len(codes)}}, length: len(codes)}
	}
	first := coded([]string{"a", "b"}, 0, 1, 1, 0)
	x := newKeyIndex(keyVecs(first, []int{0}))
	assign := func(b *Batch) []int32 { return slices.Clone(x.assign(b, []int{0}, 0, make([]int32, b.length), true)) }
	for _, tc := range []struct {
		b      *Batch
		ids    []int32
		byCode []int32
	}{
		{first, []int32{0, 1, 1, 0}, []int32{0, 1}},
		{coded([]string{"a", "b", "c"}, 2, 2), []int32{2, 2}, []int32{0, 1, 2}},
		{coded([]string{"b", "a", "c", "d"}, 3, 0), []int32{3, 1}, []int32{1, -2, -2, 3}},
	} {
		if ids := assign(tc.b); !slices.Equal(ids, tc.ids) || !slices.Equal(x.byCode, tc.byCode) {
			t.Fatalf("dictionary %v: ids %v, codes resolved %v; want %v, %v", tc.b.cols[0].dict, ids, x.byCode, tc.ids, tc.byCode)
		}
	}
}

// TestSortAllocs: one permutation, one gather per column.
func TestSortAllocs(t *testing.T) {
	const bound = 15
	for _, n := range []int{1000, 10000} {
		left, _ := joinInputs(n, 100)
		k := &Sort{Keys: []table.SortKey{{Column: "k"}, {Column: "x", Desc: true}}}
		if got := testing.AllocsPerRun(5, func() {
			if _, err := k.Run(left); err != nil {
				t.Fatal(err)
			}
		}); got > bound {
			t.Errorf("sort of %d rows allocates %.0f objects, want at most %d at any row count", n, got, bound)
		}
	}
}

// TestTopNAllocs: a top-n with no step is its heap over the input's rows
// — the slots, their row positions and one comparator per key — and its
// output (a batch and a selection per column), whatever the row count:
// within 512 bytes of the output over 1,000 rows and 10,000. It ran a
// whole fan run, its views and step buffers, at about 2 KiB more.
func TestTopNAllocs(t *testing.T) {
	k := &TopN{Keys: []table.SortKey{{Column: "k"}, {Column: "x", Desc: true}}, Limit: 10}
	objects := map[int]float64{}
	for _, n := range []int{1000, 10000} {
		in, _ := joinInputs(n, 100)
		objects[n] = testing.AllocsPerRun(5, func() {
			if out, err := k.Run(in); err != nil || out.Len() != k.Limit {
				t.Fatalf("top-n: %v rows, err %v", out.Len(), err)
			}
		})
		least := uint64(math.MaxUint64)
		for run := 0; run < 5; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			k.Run(in)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		cols := uintptr(len(in.cols))
		output := unsafe.Sizeof(Batch{}) + cols*(8+unsafe.Sizeof(Vec{}))
		if want := uint64(output) + 512; least > want {
			t.Errorf("the top-%d of %d rows allocates %d bytes, want at most %d", k.Limit, n, least, want)
		}
	}
	if objects[1000] != objects[10000] {
		t.Errorf("the top-n allocates %.0f objects over 1,000 rows and %.0f over 10,000", objects[1000], objects[10000])
	}
}

// stringCell is element i of a column cycling through distinct values,
// each repeated run times in a row.
func stringCell(i, distinct, run int) string { return "v" + strconv.Itoa(i/run%distinct) }

// stringColumn builds that column through the Builder and returns its
// vector.
func stringColumn(n, distinct, run int) *Vec {
	b := NewBuilder(schema.MustFromNames("s"))
	for i := 0; i < n; i++ {
		b.Append([]value.V{value.NewString(stringCell(i, distinct, run))})
	}
	batch, _ := FromTable(b.Table())
	return batch.Col(0)
}

// TestBuilderDictionary pins when a string column is coded: always while
// its dictionary is under the floor, above it only while the dictionary
// is a small share of the rows; and that a column which reverts — or
// boxes — mid-build reads exactly like one that was never coded.
func TestBuilderDictionary(t *testing.T) {
	for _, tc := range []struct {
		rows, distinct, run int
		coded               bool
	}{
		{10, 10, 1, true},                       // all new, but tiny
		{5000, 50, 1, true},                     // the low-cardinality shape
		{5000, dictMinEntries - 1, 1, true},     // under the floor (the dictionary also lists "")
		{5000, 5000, 1, false},                  // an id column: reverts at the floor
		{40000, 2000, 2 * dictMaxShare, true},   // over the floor, each value seen 2*dictMaxShare times by then
		{40000, 2000, dictMaxShare / 2, false},  // over the floor while still half the share allowed
		{40000, 40000 / dictMaxShare, 1, false}, // ends at exactly the share, but crossed the floor far above it
	} {
		v := stringColumn(tc.rows, tc.distinct, tc.run)
		if got := v.dict != nil; got != tc.coded {
			t.Errorf("%d rows, %d distinct in runs of %d: coded=%v, want %v", tc.rows, tc.distinct, tc.run, got, tc.coded)
		}
		if v.Len() != tc.rows || (v.dict != nil && len(v.codes) != tc.rows) || (v.dict == nil && len(v.strs) != tc.rows) {
			t.Errorf("%d rows, %d distinct: vector length is off", tc.rows, tc.distinct)
		}
		for i := 0; i < tc.rows; i += 1 + tc.rows/97 {
			if got, want := v.At(i).Str(), stringCell(i, tc.distinct, tc.run); got != want {
				t.Fatalf("%d rows, %d distinct: element %d is %q, want %q", tc.rows, tc.distinct, i, got, want)
			}
		}
	}

	// Leading nulls, nulls among the values, the empty string, then a
	// kind change: the boxed column holds exactly the appended cells.
	cells := []value.V{value.VNull, value.NewString("x"), value.NewString(""), value.VNull, value.NewString("x"), value.NewInt(7)}
	for upto := 1; upto <= len(cells); upto++ {
		b := NewBuilder(schema.MustFromNames("c"))
		for _, c := range cells[:upto] {
			b.Append([]value.V{c})
		}
		tb := b.Table()
		for i, want := range cells[:upto] {
			if got := tb.At(i, 0); got != want {
				t.Errorf("first %d cells: row %d is %v %q, want %v %q", upto, i, got.Kind(), got, want.Kind(), want)
			}
		}
	}
}

// TestBuilderSealsVectorsAtTheirSize: whatever the reserve promised and
// however the vectors grew, a sealed table's have at most a quarter to
// spare, and every cell reads as it was appended — plain, coded, boxed or
// null.
func TestBuilderSealsVectorsAtTheirSize(t *testing.T) {
	for _, reserve := range []int{0, 1000, 1 << 20} {
		const rows = 3000
		b := NewBuilder(schema.MustFromNames("n", "f", "ok", "id", "low", "mixed"))
		text := ""
		for i := 0; i < rows; i++ {
			text += "id-" + strconv.Itoa(i) + ","
		}
		cell := func(i, c int) value.V {
			id := value.NewString("id-" + strconv.Itoa(i))
			return []value.V{value.NewInt(int64(i)), value.NewFloat(float64(i) / 2), value.NewBool(i%2 == 0),
				id, value.NewString("v" + strconv.Itoa(i%7)), map[bool]value.V{true: id, false: value.NewInt(int64(i))}[i%3 == 0]}[c]
		}
		for i, off := 0, 0; i < rows; i++ {
			if i == 10 {
				b.Reserve(reserve)
			}
			row := make([]value.V, 6)
			for c := range row {
				row[c] = cell(i, c)
			}
			end := off + len(row[3].Str())
			row[3] = value.NewString(text[off:end]) // a substring, as a decoder's is
			off = end + 1
			if i%50 == 49 {
				row[1] = value.VNull
			}
			b.Append(row)
		}
		read := b.Table().Rows()
		for c, v := range b.cols {
			n := len(v.bools) + len(v.ints) + len(v.floats) + len(v.strs) + len(v.codes) + len(v.anys)
			spare := cap(v.bools) + cap(v.ints) + cap(v.floats) + cap(v.strs) + cap(v.codes) + cap(v.anys) - n
			if n != rows || spare > rows/4 {
				t.Errorf("reserve %d, column %d: %d cells and %d spare, want %d and at most %d", reserve, c, n, spare, rows, rows/4)
			}
			for i := 0; i < rows; i++ {
				want := cell(i, c)
				if c == 1 && i%50 == 49 {
					want = value.VNull
				}
				if got := read[i][c]; got != want {
					t.Fatalf("reserve %d, column %d, row %d: %v, want %v", reserve, c, i, got, want)
				}
			}
		}
	}
}

// TestDictionarySharedByGather: selecting from a coded vector copies
// codes and shares the dictionary.
func TestDictionarySharedByGather(t *testing.T) {
	v := stringColumn(1000, 10, 1)
	g := gather(v, []int32{5, -1, 999})
	if g.dict == nil || &g.dict[0] != &v.dict[0] {
		t.Fatal("gather did not share the dictionary")
	}
	if g.At(0).Str() != "v5" || !g.At(1).IsNull() || g.At(2).Str() != "v9" {
		t.Errorf("gathered %v %v %v", g.At(0), g.At(1), g.At(2))
	}
}

func BenchmarkJoin60kx500(b *testing.B) {
	left, right := joinInputs(60000, 500)
	k := innerJoinKX()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := one((*Probe)(k), left, right, morselRows)
		if err != nil || out.Len() != 60000 {
			b.Fatal(out.Len(), err)
		}
	}
}

func BenchmarkSort10k(b *testing.B) {
	lb := NewBuilder(schema.MustFromNames("k", "w"))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		lb.Append([]value.V{value.NewString("key" + strconv.Itoa(rng.Intn(500))), value.NewInt(int64(rng.Intn(5000)))})
	}
	in, _ := FromTable(lb.Table())
	k := &Sort{Keys: []table.SortKey{{Column: "w", Desc: true}, {Column: "k"}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuilderStrings builds one 60,000-cell string column from
// bytes at several distinct shares, as shipped ("rule": coded until the
// revert rule says otherwise) and with the column plain from the start —
// the measurement dictMaxShare was read from.
func BenchmarkBuilderStrings(b *testing.B) {
	const rows = 60000
	s := schema.MustFromNames("s")
	for _, distinct := range []int{520, rows / 16, rows / 8, rows / 6, rows / 5, rows / 4, rows} {
		rng := rand.New(rand.NewSource(1))
		cells := make([][]byte, rows)
		for i := range cells {
			cells[i] = []byte(fmt.Sprintf("value-%07d", rng.Intn(distinct)))
		}
		for _, mode := range []string{"rule", "plain"} {
			b.Run(fmt.Sprintf("distinct=%d/%s", distinct, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bl := NewBuilder(s)
					if mode == "plain" {
						bl.start(0, value.String)
						bl.plain(0)
					}
					for _, c := range cells {
						bl.AppendString(0, c)
						bl.EndRow()
					}
					if bl.Table().Len() != rows {
						b.Fatal("short table")
					}
				}
			})
		}
	}
}
