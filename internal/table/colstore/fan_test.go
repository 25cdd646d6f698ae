package colstore

import (
	"errors"
	"fmt"
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

// FuzzFan runs random chains of filters, map-exprs and limits as a Fan
// into one to three group-bys, and into a materialize and a top-n sink, over a
// join's output (plain and dictionary-coded strings, nulls, NaN, an
// all-null column, and an outer join's holes) — or, as a probe step, over
// the join's probe side — and holds every sink's output, cell for cell
// and vector kind for vector kind, to gathering the chain after every
// stage and then calling the sink's kernel. The first byte picks the
// join, the morsel size (64 rows, 1,024 or the whole batch) and whether
// the join is the chain's first step, the rest the stages, and the last
// the sinks' keys — among them g, an int column the chain computes
// first, and m, the one its maps compute — and into a branch, a step of
// its own into a group-by or a top-n. Where a run declines (a map's
// morsel kind moves, a top-n key holds NaN) it starts over as one morsel,
// as the kernels' Run does. A fan that streams is also pushed its source
// in batches of random sizes, 1 among them, and must give the same
// outputs unless it declines.
func FuzzFan(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0, 4, 2})
	f.Add(int64(2), []byte{0x41, 9, 4, 0, 1})
	f.Add(int64(3), []byte{0x83, 1, 12, 3})
	f.Add(int64(4), []byte{0xC2, 0, 8, 16, 5, 4})
	f.Add(int64(5), []byte{0x12, 28, 0, 33, 7})
	f.Add(int64(24), []byte("\xa107Z0"))               // filters around a bare column map: shared selections
	f.Add(int64(6), []byte{0x09, 6, 1, 0x31})          // a left outer probe, a build-side filter, materialize and top-n
	f.Add(int64(7), []byte{0x48, 0, 3, 8, 0x72})       // a probe by 1,024, a map, top-n on a computed key
	f.Add(int64(8), []byte{0x88, 1, 0x50})             // a probe by 64, materialize and top-n
	f.Add(int64(9), []byte{0x49, 0x1E, 3, 0x3E, 0x31}) // limits after a left outer probe
	f.Add(int64(10), []byte{0x48, 3, 0x2C})            // a probe by 1,024, a map, a top-n and a branch's top-n
	f.Add(int64(11), []byte{0x08, 2, 14, 0x09})        // a probe by 64, a filter and a limit, a group-by and a branch's group-by
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
		probe := ops[0]&8 != 0
		join := &Join{LeftKeys: []int{0}, RightKeys: []int{0}, KeepLeft: ops[0]&1 != 0, KeepRight: ops[0]&2 != 0 && !probe,
			Cols: cols, Out: schema.MustFromNames(names...)}
		in, err := one((*Probe)(join), lb, rb, whole)
		if err != nil {
			t.Fatal(err)
		}
		// The chain, each stage over its input's schema, run morsel-sized
		// by the fan and whole over the gathered reference.
		ref, s := gathered(in), in.Schema()
		stage := func(op byte, sz int) Kernel {
			switch {
			case op%16 == 14:
				return &Limit{N: int(op) * 9}
			case op&1 == 0:
				return &Filter{Pred: compileSize(t, selPreds[int(op>>1)%len(selPreds)], s, sz)}
			}
			return mapExpr(t, fanExprs[int(op>>1)%len(fanExprs)], "m", s, sz)
		}
		fan := &Fan{Chain: []Kernel{mapExpr(t, "lv % 4", "g", s, size)}}
		source, build := in, (*Batch)(nil)
		if probe {
			fan.Chain = append([]Kernel{(*Probe)(join)}, fan.Chain...)
			source, build = lb, rb
		}
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
			ref = gathered(out)
		}
		var registered []string
		for op := range Registry {
			registered = append(registered, op)
		}
		sort.Strings(registered)
		keys := [][]string{{"ls"}, {"g"}, {"rs", "lb"}, {"lz"}, {"m"}}
		last := int(ops[len(ops)-1])
		var want []func() (*Batch, error)
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
			fan.Sinks = append(fan.Sinks, g)
			want = append(want, func() (*Batch, error) { return g.run(ref, whole) })
		}
		if last&16 != 0 {
			fan.Sinks = append(fan.Sinks, Materialize)
			want = append(want, func() (*Batch, error) { return ref, nil })
		}
		if last&32 != 0 {
			by := []table.SortKey{{Column: "g", Desc: true}, {Column: "ls"}}
			if ref.Schema().Index("m") >= 0 {
				by = []table.SortKey{{Column: "m", Desc: last&64 != 0}, {Column: "rs"}}
			}
			top := &TopN{Keys: by, Limit: last >> 6 * 7}
			fan.Sinks = append(fan.Sinks, top)
			want = append(want, func() (*Batch, error) { return topN(ref, top.Keys, top.Limit) })
		}
		if op := ops[1]; last&8 != 0 {
			// A branch: one step of its own over the chain's rows, into a
			// group-by or a top-n.
			s = ref.Schema()
			step, out := stage(op, size), ref
			if out, err = stage(op, whole).Run(ref); err != nil {
				t.Fatal(err)
			}
			out = gathered(out)
			var sink Kernel = &GroupBy{Keys: []int{out.Schema().Index("g")}, Aggs: []Agg{{Op: "count", Col: -1, New: Registry["count"]}},
				Out: schema.MustFromNames("g", "n"), SortKeys: []table.SortKey{{Column: "g"}}}
			if last&4 != 0 {
				sink = &TopN{Keys: []table.SortKey{{Column: "g", Desc: true}, {Column: "ls"}}, Limit: int(op % 9)}
			}
			fan.Sinks = append(fan.Sinks, &Branch{Chain: []Kernel{step}, Sink: sink})
			want = append(want, func() (*Batch, error) { return sink.Run(out) })
		}
		outs, stages, err := fan.must(source, build, size)
		if err != nil {
			t.Fatalf("fan: %v", err)
		}
		at := len(fan.Chain)
		if want := ref.Len(); stages[at].Rows != want {
			t.Fatalf("fan fed its sinks %d rows, the chain keeps %d", stages[at].Rows, want)
		}
		wants := make([]*Batch, len(want))
		for i, w := range want {
			if wants[i], err = w(); err != nil {
				t.Fatal(err)
			}
			sameBatch(t, fmt.Sprintf("sink %d (%T)", i, fan.Sinks[i]), outs[i], wants[i])
		}
		// A fan that streams gives Run's outputs, its source pushed in
		// batches of random sizes, none longer than the first.
		st := fan.Stream(build)
		if st == nil {
			return
		}
		first := 1 + rng.Intn(max(source.length, 1))
		for lo, n := 0, first; lo == 0 || lo < source.length; lo, n = lo+n, 1+rng.Intn(first) {
			hi := min(lo+n, source.length)
			if err := st.Push(source.selectRows(identity(hi)[lo:])); errors.Is(err, ErrDeclined) {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
		souts, _, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for i := range wants {
			sameBatch(t, fmt.Sprintf("streamed sink %d (%T)", i, fan.Sinks[i]), souts[i], wants[i])
		}
	})
}

// TestFanAllocs: a fan allocates per run, never per morsel — its view,
// bitmap, kept and joined positions, map output and expression
// temporaries are one morsel long and reused — so a filter and a map into
// two group-bys, and a probe, a filter and a map into Materialize, whose
// output vectors are sized by the counting pass, cost the same objects
// over 3,000 rows (3 morsels) and 30,000 (30).
func TestFanAllocs(t *testing.T) {
	allocs := map[string]float64{}
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
		allocs[fmt.Sprint("fold ", n)] = testing.AllocsPerRun(20, func() {
			if _, _, ok, err := f.Run(b, nil); !ok || err != nil {
				t.Fatalf("fan declined (%v) or failed: %v", ok, err)
			}
		})
		dim := NewBuilder(schema.MustFromNames("product", "w"))
		for i := 0; i < 60; i++ { // ten products with two partners, ten with none
			dim.Append([]value.V{value.NewString("p" + strconv.Itoa(i%50)), value.NewInt(int64(i))})
		}
		db, _ := FromTable(dim.Table())
		joined := schema.MustFromNames("product", "amount", "qty", "w")
		out = joined.ExtendOrSame("revenue")
		join := &Join{LeftKeys: []int{1}, RightKeys: []int{0}, Out: joined,
			Cols: []JoinCol{{Col: 1}, {Col: 2}, {Col: 3}, {Right: true, Col: 1}}}
		m := &Fan{Chain: []Kernel{(*Probe)(join), &Filter{Pred: compileSize(t, "qty > 3", joined, morselRows)},
			&MapExpr{Eval: compileSize(t, "amount * w", joined, morselRows), Out: out, Slot: out.Index("revenue")}},
			Sinks: []Kernel{Materialize}}
		allocs[fmt.Sprint("materialize ", n)] = testing.AllocsPerRun(20, func() {
			if outs, _, ok, err := m.Run(b, db); !ok || err != nil || outs[0].Len() == 0 {
				t.Fatalf("fan declined (%v) or failed: %v", ok, err)
			}
		})
	}
	for _, sink := range []string{"fold", "materialize"} {
		small, big := allocs[sink+" 3000"], allocs[sink+" 30000"]
		t.Logf("%s: %.0f objects over 3,000 rows, %.0f over 30,000", sink, small, big)
		if d := big - small; d > 2 || d < -2 {
			t.Errorf("a fan into %s allocates %.0f objects over 3,000 rows and %.0f over 30,000", sink, small, big)
		}
	}
}
