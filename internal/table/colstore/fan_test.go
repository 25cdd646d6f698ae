package colstore

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// fanExprs are FuzzFan's maps: FuzzSelections', and bare columns, whose
// output shares its column's selection.
var fanExprs = append([]string{"li", "rs"}, selExprs...)

// FuzzFan runs random chains of filters and map-exprs as a Fan into one
// to three group-bys, over a join's output (plain and dictionary-coded
// strings, nulls, NaN, an all-null column, and an outer join's holes),
// and holds every sink's output, cell for cell and vector kind for vector
// kind, to gathering the chain after every stage and then calling
// GroupBy.Run. The first byte picks the join and the morsel size (64
// rows, 1,024 or the whole batch), the rest the stages, and the last the
// sinks' keys — among them g, an int column the chain computes first, and
// m, the one its maps compute. A fan may decline only over a map: then
// the caller runs the chain as kernels, which FuzzSelections covers.
func FuzzFan(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0, 4, 2})
	f.Add(int64(2), []byte{0x41, 9, 4, 0, 1})
	f.Add(int64(3), []byte{0x83, 1, 12, 3})
	f.Add(int64(4), []byte{0xC2, 0, 8, 16, 5, 4})
	f.Add(int64(5), []byte{0x12, 28, 0, 33, 7})
	f.Add(int64(24), []byte("\xa107Z0")) // filters around a bare column map: shared selections
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) < 2 || len(ops) > 12 {
			return
		}
		size := []int{64, 1024, whole, 64}[ops[0]>>6]
		rows := map[int]int{64: 300, 1024: 3000, whole: 80}[size]
		rng := rand.New(rand.NewSource(seed))
		lt, rt := keyTable(rng, rng.Intn(rows)), rebuilt(keyTable(rng, rng.Intn(20)))
		if ops[0]&4 != 0 {
			lt = rebuilt(lt)
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
		join := &Join{LeftKeys: []int{0}, RightKeys: []int{0}, KeepLeft: ops[0]&1 != 0, KeepRight: ops[0]&2 != 0,
			Cols: cols, Out: schema.MustFromNames(names...)}
		in, _, err := join.run(lb, rb, whole)
		if err != nil {
			t.Fatal(err)
		}
		// The chain, each stage over its input's schema, run morsel-sized
		// by the fan and whole over the gathered reference.
		ref, s := gathered(in), in.Schema()
		stage := func(op byte, sz int) Kernel {
			if op&1 == 0 {
				return &Filter{Pred: compileSize(t, selPreds[int(op>>1)%len(selPreds)], s, sz)}
			}
			return mapExpr(t, fanExprs[int(op>>1)%len(fanExprs)], "m", s, sz)
		}
		fan := &Fan{Chain: []Kernel{mapExpr(t, "lv % 4", "g", s, size)}}
		maps := false
		if ref, err = mapExpr(t, "lv % 4", "g", s, whole).Run(ref); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops[1 : len(ops)-1] {
			s = ref.Schema()
			fan.Chain = append(fan.Chain, stage(op, size))
			out, err := stage(op, whole).Run(ref)
			if err != nil {
				t.Fatal(err)
			}
			ref, maps = gathered(out), maps || op&1 == 1
		}
		var registered []string
		for op := range Registry {
			registered = append(registered, op)
		}
		sort.Strings(registered)
		keys := [][]string{{"ls"}, {"g"}, {"rs", "lb"}, {"lz"}, {"m"}}
		last := int(ops[len(ops)-1])
		var groups []*GroupBy
		for k := 0; k <= last%3; k++ {
			key := keys[(last/3+k)%len(keys)]
			if ref.Schema().Index(key[0]) < 0 {
				key = keys[1]
			}
			g := &GroupBy{Out: schema.MustFromNames(append(append([]string(nil), key...), "n", "a0", "a1", "a2", "a3")...)}
			for _, c := range key {
				g.Keys = append(g.Keys, ref.Schema().Index(c))
				g.SortKeys = append(g.SortKeys, table.SortKey{Column: c})
			}
			g.Aggs = []Agg{{Op: "count", Col: -1, New: Registry["count"]}}
			for _, c := range []string{"lf", "rs", "li", "m"} {
				op := registered[rng.Intn(len(registered))]
				if ref.Schema().Index(c) < 0 {
					c = "g"
				}
				g.Aggs = append(g.Aggs, Agg{Op: op, Col: ref.Schema().Index(c), New: Registry[op]})
			}
			groups = append(groups, g)
			fan.Sinks = append(fan.Sinks, g)
		}
		outs, ok, err := fan.run(in, size)
		if err != nil || !ok && !maps {
			t.Fatalf("fan: ok %v, error %v", ok, err)
		}
		if !ok {
			return
		}
		if want := ref.Len(); fan.Stages[len(fan.Chain)].Rows != want {
			t.Fatalf("fan fed its sinks %d rows, the chain keeps %d", fan.Stages[len(fan.Chain)].Rows, want)
		}
		for i, g := range groups {
			want, err := g.run(ref, whole)
			if err != nil {
				t.Fatal(err)
			}
			sameBatch(t, "sink "+strconv.Itoa(i), outs[i], want)
		}
	})
}

// TestFanAllocs: a fan allocates per run, never per morsel — its view,
// bitmap, kept positions, map output and expression temporaries are one
// morsel long and reused — so a filter and a map into two group-bys cost
// the same objects over 3,000 rows (3 morsels) and 30,000 (30).
func TestFanAllocs(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{3000, 30000} {
		bld := NewBuilder(schema.MustFromNames("region", "product", "amount", "qty"))
		for i := 0; i < n; i++ {
			bld.Append([]value.V{value.NewString("r" + strconv.Itoa(i%7)), value.NewString("p" + strconv.Itoa(i%50)),
				value.NewInt(int64(i % 97)), value.NewInt(int64(i % 13))})
		}
		b, _ := FromTable(bld.Table())
		s := b.Schema()
		out := s.ExtendOrSame("revenue")
		sum := []Agg{{Op: "sum", Col: 4}}
		f := &Fan{Chain: []Kernel{&Filter{Pred: compileSize(t, "qty > 3", s, morselRows)},
			&MapExpr{Eval: compileSize(t, "amount * qty", s, morselRows), Out: out, Slot: out.Index("revenue")}},
			Sinks: []Kernel{&GroupBy{Keys: []int{0}, Aggs: sum, Out: schema.MustFromNames("region", "total")},
				&GroupBy{Keys: []int{1}, Aggs: sum, Out: schema.MustFromNames("product", "total")}}}
		allocs[n] = testing.AllocsPerRun(20, func() {
			if _, ok, err := f.Run(b); !ok || err != nil {
				t.Fatalf("fan declined (%v) or failed: %v", ok, err)
			}
		})
	}
	t.Logf("%.0f objects over 3,000 rows, %.0f over 30,000", allocs[3000], allocs[30000])
	if d := allocs[30000] - allocs[3000]; d > 2 || d < -2 {
		t.Errorf("a fan allocates %.0f objects over 3,000 rows and %.0f over 30,000", allocs[3000], allocs[30000])
	}
}
