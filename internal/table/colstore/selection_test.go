package colstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"shareinsights/internal/expr"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// gathered returns b with every selection gathered into a dense vector:
// the chain FuzzSelections holds the kernels to.
func gathered(b *Batch) *Batch {
	cols := make([]*Vec, len(b.cols))
	for i, v := range b.cols {
		cols[i] = v.dense()
	}
	return &Batch{schema: b.schema, cols: cols, length: b.length}
}

// The chain's stages over the join's output (keyTable's columns, "l"- or
// "r"-prefixed by side; "lz" and "rz" are null throughout) and g.
var (
	selPreds = []string{"li > 1", "ls == 'a'", "not lb", "rf >= 1", "li + ri > 2 or rs contains 'a'",
		"lz == lz", "-lv < -10", "rv % 2 == 0", "lb and rb"}
	selExprs = []string{"li * 2 + ri", "lf + rf", "lv - rv * 3", "ls + rs", "lz + li", "-(li * lv)", "rf / li"}
)

// chainKernel picks one single-input stage for op over schema s, its
// expression evaluated size rows at a time.
func chainKernel(t *testing.T, op byte, s *schema.Schema, size int) Kernel {
	arg := int(op >> 3)
	col := arg % s.Len()
	switch op % 5 {
	case 0:
		return &Filter{Pred: compileSize(t, selPreds[arg%len(selPreds)], s, size)}
	case 1:
		return &Sort{Keys: []table.SortKey{{Column: s.Col(col).Name, Desc: op&8 != 0}, {Column: s.Col((col + 3) % s.Len()).Name}}}
	case 2:
		return &TopN{Keys: []table.SortKey{{Column: s.Col(col).Name, Desc: op&8 != 0}, {Column: s.Col((col + 5) % s.Len()).Name}},
			Limit: arg % 13}
	case 3:
		return &Limit{N: arg}
	}
	return mapExpr(t, selExprs[arg%len(selExprs)], "m", s, size)
}

// mapExpr is the MapExpr kernel computing src into column name, size rows
// at a time.
func mapExpr(t *testing.T, src, name string, s *schema.Schema, size int) Kernel {
	out := s.ExtendOrSame(name)
	return &MapExpr{Eval: compileSize(t, src, s, size), Out: out, Slot: out.Index(name)}
}

// groupBySize is a group-by folding size rows at a time.
type groupBySize struct {
	*GroupBy
	size int
}

// Run implements Kernel.
func (k groupBySize) Run(b *Batch) (*Batch, error) { return k.run(b, k.size) }

// Registry is the task package's aggregate registry, name → factory.
// registry_test.go (package colstore_test, which may import task)
// fills it.
var Registry = map[string]func() Accumulator{}

// FuzzSelections runs random kernel chains over random batches and
// checks that selections, morsels and fusion change nothing but what is
// copied: a join under the condition the first byte picks (the outer
// joins' -1 holes then flow through every later stage), filters, sorts,
// top-ns, limits and map-exprs in the order the rest pick, then a
// group-by whose aggregates are drawn from the whole registry — every
// stage compared cell for cell and vector kind for vector kind with the
// same chain gathering every column after every stage and running every
// kernel over the whole batch at once, and the end also once compacted.
// The chain runs fused where the engine fuses: a first stage that
// filters on the probe side only runs as a step after an inner or left
// outer join's probe, and a sort with a limit after it runs as one TopN; the
// fused output must equal the unfused chain's, and the chain goes on from
// it. The first
// byte's top bits pick the morsel size the chain runs by — the join's
// probe, the filters' and map-exprs' expressions, the group-by's fold: 64
// rows (over a left side of up to 200), 1,024 (over a join of a few
// thousand rows) or the whole batch; batch lengths are random, so the
// last morsel is mostly short. The inputs hold plain and
// dictionary-coded strings, nulls, NaN and an all-null column.
func FuzzSelections(f *testing.F) {
	for cond := byte(0); cond < 4; cond++ {
		f.Add(int64(cond), []byte{cond | 4<<cond, 0, 1, 2, 3, 4, 8, 9, 10, 11, 12})
	}
	f.Add(int64(7), []byte{0x3C, 4, 0, 17, 1, 33, 2, 66})
	f.Add(int64(8), []byte{0x1B, 40, 8, 1, 3})
	f.Add(int64(12), []byte{0x20, 0, 9, 5})
	f.Add(int64(21), []byte{0x41, 4, 0, 20, 33, 12, 1})
	f.Add(int64(22), []byte{0x70, 0, 8, 16, 24, 32, 40, 48, 4})
	f.Add(int64(23), []byte{0x82, 0, 9, 5, 4})
	f.Add(int64(24), []byte{0xC3, 44, 28, 8, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) == 0 || len(ops) > 16 {
			return
		}
		size := []int{64, 1024, whole, 64}[ops[0]>>6]
		rows := map[int]int{64: 200, 1024: 600, whole: 50}[size]
		rng := rand.New(rand.NewSource(seed))
		lt, rt := keyTable(rng, rng.Intn(rows)), keyTable(rng, rng.Intn(20))
		if ops[0]&4 != 0 {
			lt = rebuilt(lt)
		}
		if ops[0]&8 != 0 {
			rt = rebuilt(rt)
		}
		lb, _ := FromTable(lt)
		rb, _ := FromTable(rt)
		var names []string
		var cols []JoinCol
		for side, p := range []string{"l", "r"} {
			for c, n := range lt.Schema().Names() {
				names, cols = append(names, p+n), append(cols, JoinCol{Right: side == 1, Col: c})
			}
		}
		key := []int{int(ops[0]>>4) % 4}
		join := &Join{LeftKeys: key, RightKeys: key, KeepLeft: ops[0]&1 != 0, KeepRight: ops[0]&2 != 0,
			Cols: cols, Out: schema.MustFromNames(names...)}
		b, err1 := one((*Probe)(join), lb, rb, size)
		want, err2 := one((*Probe)(join), lb, rb, whole)
		if err1 != nil || err2 != nil {
			t.Fatalf("join: errors %v, %v", err1, err2)
		}
		ref := gathered(want)
		sameBatch(t, "join", b, ref)
		// step runs ker on the chain and its whole-batch twin on the
		// gathered reference.
		step := func(stage string, ker, twin Kernel) {
			got, err1 := ker.Run(b)
			want, err2 := twin.Run(ref)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: errors %v, %v", stage, err1, err2)
			}
			b, ref = got, gathered(want)
			sameBatch(t, "after "+stage, b, ref)
		}
		chain := ops[1:]
		if len(chain) > 0 && chain[0]%5 == 0 && !join.KeepRight && probeOnly(t, selPreds[int(chain[0]>>3)%len(selPreds)]) {
			f := chainKernel(t, chain[0], b.Schema(), size).(*Filter)
			outs, stages, err := (&Fan{Chain: []Kernel{(*Probe)(join), f}, Sinks: []Kernel{Materialize}}).must(lb, rb, size)
			var fused *Batch
			joined := 0
			if err == nil {
				fused, joined = outs[0], stages[1].Rows
			}
			if err != nil || joined != b.Len() {
				t.Fatalf("fused join and filter: %d rows joined, want %d; error %v", joined, b.Len(), err)
			}
			step("filter", f, chainKernel(t, chain[0], b.Schema(), whole))
			sameBatch(t, "fused join and filter", fused, ref)
			b, chain = fused, chain[1:]
		}
		// g repeats and is never null: the typed int-key path of the
		// group-by, read through whatever the stages select.
		step("g", mapExpr(t, "lv % 4", "g", b.Schema(), size), mapExpr(t, "lv % 4", "g", b.Schema(), whole))
		for i := 0; i < len(chain); i++ {
			ker := chainKernel(t, chain[i], b.Schema(), size)
			var top *Batch
			if sort, ok := ker.(*Sort); ok && i+1 < len(chain) && chain[i+1]%5 == 3 {
				var err error
				if top, err = (&TopN{Keys: sort.Keys, Limit: int(chain[i+1] >> 3)}).Run(b); err != nil {
					t.Fatal(err)
				}
			}
			step(fmt.Sprintf("stage %d (%T)", i+1, ker), ker, chainKernel(t, chain[i], b.Schema(), whole))
			if top != nil {
				i++
				step(fmt.Sprintf("stage %d (limit)", i+1), chainKernel(t, chain[i], b.Schema(), size), chainKernel(t, chain[i], b.Schema(), whole))
				sameBatch(t, "sort and limit as a top-n", top, ref)
				b = top
			}
		}
		keys := [][]string{{"ls"}, {"g"}, {"rs", "lb"}, {"lz"}}[int(ops[len(ops)-1])%4]
		var keyIdx []int
		for _, k := range keys {
			keyIdx = append(keyIdx, b.Schema().Index(k))
		}
		sortKeys := make([]table.SortKey, len(keys))
		for i, k := range keys {
			sortKeys[i] = table.SortKey{Column: k}
		}
		var registered []string
		for op := range Registry {
			registered = append(registered, op)
		}
		sort.Strings(registered)
		aggs := []Agg{{Op: "count", Col: -1, New: Registry["count"]}}
		for _, c := range []string{"lf", "rv", "rs", "li", "rb", "lz"} {
			op := registered[rng.Intn(len(registered))]
			aggs = append(aggs, Agg{Op: op, Col: b.Schema().Index(c), New: Registry[op]})
		}
		group := &GroupBy{Keys: keyIdx, Aggs: aggs, SortKeys: sortKeys,
			Out: schema.MustFromNames(append(keys, "n", "a0", "a1", "a2", "a3", "a4", "a5")...)}
		step("group-by", groupBySize{group, size}, groupBySize{group, whole})
		if !sameCells(Compact(b.ToTable()), ref.ToTable()) {
			t.Fatal("compacted output differs")
		}
	})
}

// probeOnly reports whether predicate src reads only probe-side ("l")
// columns.
func probeOnly(t *testing.T, src string) bool {
	n, err := expr.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return !slices.ContainsFunc(expr.Columns(n), func(c string) bool { return !strings.HasPrefix(c, "l") })
}

// TestKernelChainAllocs: a 60,000-row join → filter → sort → limit →
// group-by chain allocates its index vectors, morsel-long temporaries and
// little else (64 KiB) — no stage copies the seven columns it hands on,
// and no kernel keeps a temporary a row long but the predicate's bits.
func TestKernelChainAllocs(t *testing.T) {
	const n, keys, limit = 60000, 500, 1000
	left := NewBuilder(schema.MustFromNames("k", "x", "w", "a", "b", "c"))
	for i := 0; i < n; i++ {
		left.Append([]value.V{value.NewString("key" + strconv.Itoa(i*7%keys)), value.NewInt(int64(i % 3)),
			value.NewInt(int64(i * 31 % 9973)), value.NewInt(int64(i)), value.NewFloat(float64(i)), value.NewInt(1)})
	}
	right := NewBuilder(schema.MustFromNames("k", "t"))
	for i := 0; i < keys; i++ {
		right.Append([]value.V{value.NewString("key" + strconv.Itoa(i)), value.NewString("tech" + strconv.Itoa(i%9))})
	}
	lb, _ := FromTable(left.Table())
	rb, _ := FromTable(right.Table())
	out := schema.MustFromNames("k", "x", "w", "a", "b", "c", "t")
	join := &Join{LeftKeys: []int{0}, RightKeys: []int{0}, Out: out,
		Cols: []JoinCol{{Col: 0}, {Col: 1}, {Col: 2}, {Col: 3}, {Col: 4}, {Col: 5}, {Right: true, Col: 1}}}
	pred, err := compileVecSrc("x >= 1", out)
	if err != nil {
		t.Fatal(err)
	}
	chain := []Kernel{&Filter{Pred: pred}, &Sort{Keys: []table.SortKey{{Column: "w", Desc: true}}}, &Limit{N: limit},
		&GroupBy{Keys: []int{6}, Aggs: []Agg{{Op: "sum", Col: 2}}, Out: schema.MustFromNames("t", "total"),
			SortKeys: []table.SortKey{{Column: "t"}}}}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := one((*Probe)(join), lb, rb, morselRows)
	for _, k := range chain {
		if err == nil {
			b, err = k.Run(b)
		}
	}
	runtime.ReadMemStats(&after)
	if err != nil || b.Len() != 9 {
		t.Fatalf("chain: %d groups, err %v", b.Len(), err)
	}
	const kept = 2 * n / 3
	// The int32 index vectors, each rounded up to the allocator's 8 KiB
	// pages: the join's output pair, its build side (ids, chains, heads,
	// counts), the filter's kept rows and their two compositions, the
	// sort's permutation and two more, the limit's and two more, one
	// morsel of ids each for the join's probe and the group-by; and the two
	// key indexes, at 96 bytes a key. The predicate reads no column into a
	// vector of its own: it writes a morsel of bools at a time, and a bit
	// a row.
	pages := func(bytes int) int { return (bytes + 8191) &^ 8191 }
	index := 2 * 96 * keys
	for _, rows := range []int{n, n, keys, keys, keys, keys, kept, kept, kept, kept, kept, kept, limit, limit, limit,
		min(n, morselRows), min(limit, morselRows)} {
		index += pages(4 * rows)
	}
	bits := pages(morselRows) + pages(n/8)
	got := after.TotalAlloc - before.TotalAlloc
	if got > uint64(index+bits+64<<10) {
		t.Errorf("chain allocated %d KiB, want at most %d KiB of index vectors, %d KiB of the predicate's and 64 KiB",
			got>>10, index>>10, bits>>10)
	}
}

// TestTableAtAndSelect: Table.At and Table.Select read a row-backed, a
// plain, a dictionary-coded, a boxed and a selection-backed table alike —
// the cells Rows() would show — and never allocate a row view for it: At
// costs nothing, and a column-backed table's Select is column-backed.
func TestTableAtAndSelect(t *testing.T) {
	s := schema.MustFromNames("s", "i", "f", "mixed")
	rows := make([]table.Row, 40)
	for i := range rows {
		rows[i] = table.Row{value.NewString(fmt.Sprintf("k%d", i%3)), value.NewInt(int64(i)), value.NewFloat(float64(i) / 4), value.NewInt(int64(i))}
		if i%7 == 0 {
			rows[i][1], rows[i][3] = value.VNull, value.NewString("x")
		}
	}
	byRows, _ := table.FromRows(s, rows)
	uniform, _ := table.FromRows(s, append([]table.Row(nil), rows[1:7]...))
	plain, _ := FromTable(uniform)
	b := NewBuilder(s)
	for _, r := range rows {
		b.Append(r)
	}
	coded := b.Table()
	pick := []int32{5, 0, 5, 39, 12}
	selected := coded.Select([]int32{39, 38, 12, 5, 0, 1})
	for label, tb := range map[string]*table.Table{"row-backed": byRows, "plain": plain.ToTable(), "built": coded, "selection": selected} {
		if allocs := testing.AllocsPerRun(10, func() {
			for i := 0; i < tb.Len(); i++ {
				for c := 0; c < s.Len(); c++ {
					tb.At(i, c)
				}
			}
		}); allocs != 0 {
			t.Errorf("%s: At allocates %.0f objects", label, allocs)
		}
		idx := pick[:0:0]
		for _, i := range pick {
			if int(i) < tb.Len() {
				idx = append(idx, i)
			}
		}
		sel := tb.Select(idx)
		if (sel.Columns() == nil) != (tb.Columns() == nil) {
			t.Errorf("%s: Select changed the layout", label)
		}
		want := tb.Rows()
		for i := 0; i < tb.Len(); i++ {
			for c := 0; c < s.Len(); c++ {
				if got := tb.At(i, c); got != want[i][c] {
					t.Fatalf("%s: At(%d, %d) = %v, row %v", label, i, c, got, want[i])
				}
			}
		}
		for o, i := range idx {
			for c := 0; c < s.Len(); c++ {
				if got := sel.At(o, c); got != want[i][c] {
					t.Fatalf("%s: Select(%v).At(%d, %d) = %v, want %v", label, idx, o, c, got, want[i][c])
				}
			}
		}
	}
}
