package enginetest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"shareinsights/internal/engine/batch"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// fuzzSources builds D.src, rows rows drawn from rng, and D.dim. Each
// column mixes in, at a rate of its own, cells of another shape — ints
// among the regions and the products, numeric text among the amounts, NaN
// among the ratios, times among the flags — so any of them may be typed
// or boxed; one cell in twelve is null.
func fuzzSources(rng *rand.Rand, rows int) map[string]*table.Table {
	tb := table.New(schema.MustFromNames("region", "product", "amount", "ratio", "flag"))
	regions := []string{"east", "west", "north", "south", "remote"}
	var mix [5]int
	for c := range mix {
		mix[c] = rng.Intn(12)
	}
	for range rows {
		cells := []value.V{
			value.NewString(regions[rng.Intn(len(regions))]),
			value.NewString(fmt.Sprintf("product %c%d", 'a'+rng.Intn(4), rng.Intn(6))),
			value.NewInt(int64(rng.Intn(200) - 50)),
			value.NewFloat(rng.Float64()*4 - 2),
			value.NewBool(rng.Intn(2) == 0),
		}
		other := []value.V{
			value.NewInt(int64(rng.Intn(3))),
			value.NewInt(int64(rng.Intn(4))),
			value.NewString(fmt.Sprint(rng.Intn(9))),
			value.NewFloat(math.NaN()),
			value.NewTime(time.Unix(int64(rng.Intn(5))*3600, 0).UTC()),
		}
		for c := range cells {
			switch r := rng.Intn(12); {
			case r == 11:
				cells[c] = value.VNull
			case r < mix[c]:
				cells[c] = other[c]
			}
		}
		tb.AppendValues(cells...)
	}
	return map[string]*table.Table{"src": tb, "dim": dimTable()}
}

// FuzzKernelsMatchReference runs a random chain of filters, expr maps,
// map operators that keep every row and ones that drop or repeat rows,
// limits, sorts, global and partitioned top-ns, projects, distincts and a
// group-by, after a join one time in three
// (randFlow), over random sources with nulls, NaN, time cells and mixed
// kinds (fuzzSources): every executor mode, over row- and column-backed
// inputs, planned and unplanned, must give the reference's tables, or
// fail where the reference fails.
func FuzzKernelsMatchReference(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed, uint16(seed*41))
	}
	f.Fuzz(func(t *testing.T, seed int64, rows uint16) {
		rng := rand.New(rand.NewSource(seed))
		sources := fuzzSources(rng, int(rows%300))
		flow := randFlow(rng)
		g := buildGraph(t, flow)
		if _, rerr := runReference(g, sources); rerr != nil {
			for _, mode := range []string{batch.ColumnarOff, ""} {
				e := &batch.Executor{Parallelism: 1, Columnar: mode}
				if _, err := e.RunContext(context.Background(), g, textEnv, sources); err == nil {
					t.Fatalf("the reference fails (%v), columnar=%s does not:\n%s", rerr, mode, flow)
				}
			}
			return
		}
		diffFlow(t, flow, sources)
	})
}
