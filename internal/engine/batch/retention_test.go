package batch

import (
	"context"
	"runtime"
	"testing"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

// retentionFlow computes a 200,000-row column and keeps a small part of
// it: a top 20, or the 1 % of rows a filter passes.
const retentionFlow = `
D:
  raw: [k, v]

F:
  +D.top: D.raw | T.score | T.top20
  +D.rare: D.raw | T.score | T.one_in_100

T:
  score:
    type: map
    operator: expr
    expression: v * 3 + k
    output: score
  top20:
    type: topn
    orderby_column: [score DESC]
    limit: 20
  one_in_100:
    type: filter_by
    filter_expression: k % 100 == 0
`

// TestSelectionRetention: a node's output keeps alive its own cells and
// little more — at most 17/16 of them plus 64 KiB — however large the
// vectors its rows were selected from. A 20-row top-n and a filter
// keeping 1 % of the rows each select from the 1.6 MB score column their
// pipeline computed; handed on as selections, they would keep it alive
// for as long as the result is cached.
func TestSelectionRetention(t *testing.T) {
	const rows = 200000
	bld := colstore.NewBuilder(schema.MustFromNames("k", "v"))
	for i := 0; i < rows; i++ {
		bld.Append([]value.V{value.NewInt(int64(i)), value.NewInt(int64(i * 7 % 1000))})
	}
	src := bld.Table()
	g := buildGraph(t, retentionFlow)
	run := func(node string) *table.Table {
		res, err := (&Executor{Parallelism: 1}).RunContext(context.Background(), g, &task.Env{}, map[string]*table.Table{"raw": src})
		if err != nil {
			t.Fatal(err)
		}
		return res.Tables[node]
	}
	for _, node := range []string{"top", "rare"} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		out := run(node)
		runtime.GC()
		runtime.ReadMemStats(&after)
		cells := int64(out.Len() * out.Schema().Len() * 8)
		if kept := int64(after.HeapAlloc) - int64(before.HeapAlloc); kept > cells*17/16+64<<10 {
			t.Errorf("D.%s: %d rows of %d cells keep %d KiB alive, want at most 17/16 of the cells' %d KiB plus 64 KiB",
				node, out.Len(), out.Schema().Len(), kept>>10, cells>>10)
		}
		runtime.KeepAlive(out)
	}
	runtime.KeepAlive(src)
}
