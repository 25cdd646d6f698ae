package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// keyTable builds a five-column table whose first four columns are join
// keys of each kind drawn from small domains (so keys repeat and keys
// miss), with nulls, NaN and both zeros among them; v numbers the rows.
func keyTable(rng *rand.Rand, n int) *table.Table {
	tb := table.New(schema.MustFromNames("i", "f", "s", "b", "v"))
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
			y := b.Rows()[i][j]
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
					got, err := k.Run(lb, rb)
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
		want := src.CloneShallow()
		if err := want.Sort(keys...); err != nil {
			t.Fatal(err)
		}
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
		if !sameCells(got.ToTable(), src.Head(n)) {
			t.Errorf("limit %d: got %d rows, want the first %d", n, got.Len(), src.Head(n).Len())
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
// vectors — a number of objects that does not depend on the row count.
func TestJoinAllocs(t *testing.T) {
	const bound = 30
	for _, n := range []int{1000, 10000} {
		left, right := joinInputs(n, 100)
		k := innerJoinKX()
		if got := testing.AllocsPerRun(5, func() {
			if out, err := k.Run(left, right); err != nil || out.Len() != n {
				t.Fatalf("join: %v rows, err %v", out.Len(), err)
			}
		}); got > bound {
			t.Errorf("inner join %d x 100 allocates %.0f objects, want at most %d at any row count", n, got, bound)
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
		{40000, 2000, 2 * dictMaxShare, true},   // over the floor, each value seen 16 times by then
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
			if got := tb.Rows()[i][0]; got != want {
				t.Errorf("first %d cells: row %d is %v %q, want %v %q", upto, i, got.Kind(), got, want.Kind(), want)
			}
		}
	}
}

// TestBuilderSealsVectorsAtTheirSize: whatever the reserve promised and
// however the vectors grew, a sealed table's have at most a quarter to
// spare, and OwnStrings leaves every cell reading as it did — plain,
// coded, boxed or null.
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
		b.OwnStrings()
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
		out, err := k.Run(left, right)
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
	for _, distinct := range []int{520, rows / 16, rows / 8, rows / 4, rows} {
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
