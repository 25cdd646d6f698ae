package enginetest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

// streamFlow reads the upload src.<format> as D.src through the inline
// node D.mid (a filter, then a map) into two group-bys, one keyed by a
// string and one by an int, every sum, min, max and count among them.
// extra adds flows.
func streamFlow(format, extra string) string {
	return fmt.Sprintf(`
D:
  src: [region, product, amount, ratio, flag]

D.src:
  source: data:src.%[1]s
  format: %[1]s

F:
  D.mid: D.src | T.keep | T.rev
  +D.by_product: D.mid | T.agg_product
  +D.by_amount: D.mid | T.agg_amount
%[2]s
T:
  keep:
    type: filter_by
    filter_expression: amount > 20 or ratio < -1
  rev:
    type: map
    operator: expr
    expression: amount * 3 + 1
    output: rev
  agg_product:
    type: groupby
    groupby: [product]
    aggregates:
      - operator: count
        out_field: n
      - operator: sum
        apply_on: rev
        out_field: total
      - operator: max
        apply_on: region
        out_field: last
  agg_amount:
    type: groupby
    groupby: [amount]
    aggregates:
      - operator: min
        apply_on: product
        out_field: first
      - operator: avg
        apply_on: ratio
        out_field: mean
  all:
    type: groupby
    groupby: [flag]
`, format, extra)
}

// lazySource is D.src's upload as a batch.Decoder over the registry's
// decode, counting the decodes and those that streamed. Decode cancels
// cancel, when set, once the decoder has pushed cancelAt batches.
type lazySource struct {
	def              *flowfile.DataDef
	node             *dag.Node
	payload          []byte
	decodes, streams int
	cancel           context.CancelFunc
	cancelAt         int
}

var registry = connector.NewRegistry(connector.Options{})

func (l *lazySource) decode(push func(*colstore.Batch) error) (*table.Table, error) {
	l.decodes++
	pushed := 0
	if inner := push; inner != nil && l.cancel != nil {
		push = func(b *colstore.Batch) error {
			if pushed++; pushed == l.cancelAt {
				l.cancel()
			}
			return inner(b)
		}
	}
	t, res, err := registry.DecodePushdown(l.def, l.node.Schema, l.payload, connector.Pushdown{Push: push}, nil, 0)
	if res.Streamed && err == nil {
		l.streams++
	}
	return t, err
}

// streamRun runs g's plan with D.src as a lazy source over payload.
func streamRun(ctx context.Context, g *dag.Graph, src *lazySource) (*batch.Result, error) {
	e := &batch.Executor{Plan: dag.Optimize(g, dag.PlanOptions{}), Lazy: map[string]batch.Decoder{"src": src.decode}}
	return e.RunContext(ctx, g, &task.Env{}, nil)
}

// streamRuns runs flow over payload three ways: with D.src lazy, so that
// the run may stream it into D.mid's consumers; over its table decoded
// whole; and in the naive reference over that table. Every data object
// must agree, cell for cell and kind for kind. It returns the lazy
// source, its counts as the run left them.
func streamRuns(t *testing.T, flow string, payload []byte) *lazySource {
	t.Helper()
	g := buildGraph(t, flow)
	src := &lazySource{def: g.Nodes["src"].Def, node: g.Nodes["src"], payload: payload}
	res, err := streamRun(context.Background(), g, src)
	if err != nil {
		t.Fatal(err)
	}
	ran := *src
	whole, err := registry.Decode(src.def, src.node.Schema, payload)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]*table.Table{"src": whole}
	got := tables(res)
	for which, ref := range map[string]refResult{"the reference": reference(t, g, sources), "the whole decode's run": tables(runPlanned(t, g, dag.Optimize(g, dag.PlanOptions{}), sources, ""))} {
		for _, name := range ref.names() {
			if have, ok := got[name]; !ok || !ref[name].Equal(have) {
				t.Fatalf("D.%s differs from %s:\nwant:\n%s\ngot:\n%v", name, which, ref[name].Format(10), have)
			}
			assertKindsEqual(t, name, ref[name], got[name])
		}
	}
	return &ran
}

// streamPayload encodes tb in format: csv with a header row, or sbin.
func streamPayload(format string, tb *table.Table) []byte {
	if format == "sbin" {
		return connector.EncodeSBIN(tb)
	}
	b, _ := connector.EncodeCSV(tb)
	return b
}

// withColumn is tb with column col's cell of row i set by v.
func withColumn(tb *table.Table, col string, v func(i int, old value.V) value.V) *table.Table {
	out := table.New(tb.Schema())
	c := tb.Schema().Index(col)
	for i, r := range tb.Rows() {
		r = append(table.Row(nil), r...)
		r[c] = v(i, r[c])
		out.Append(r)
	}
	return out
}

// TestStreamedSourceDifferential: an upload that only an inline filter
// and map read into group-bys streams into them a 1,024-row batch at a
// time, over csv and sbin, and gives the whole decode's tables and the
// reference's: at no rows, one, a batch less one, one, one more, and
// three and a bit; over a group key whose dictionary grows after the
// first batch, and a string column that turns plain in the second. A
// column all null in the first batch, and an int column that meets text
// in the fifth, decline the stream: the run decodes the upload whole and
// gives the same tables.
func TestStreamedSourceDifferential(t *testing.T) {
	const n = 5000
	cases := map[string]struct {
		tb      *table.Table
		streams bool
	}{
		"growing dictionary": {withColumn(salesTable(n, 7, 10), "product", func(i int, _ value.V) value.V {
			return value.NewString(fmt.Sprintf("p%d", i/300))
		}), true},
		"coded, then plain": {withColumn(salesTable(3*1024+7, 7, 10), "product", func(i int, old value.V) value.V {
			return value.NewString(fmt.Sprintf("%s #%d", old.Str(), i))
		}), true},
		"null first batch": {withColumn(salesTable(n, 7, 0), "amount", func(i int, old value.V) value.V {
			if i < 1100 {
				return value.VNull
			}
			return old
		}), false},
		"text in the fifth batch": {withColumn(salesTable(n, 7, 0), "amount", func(i int, old value.V) value.V {
			if i == 4*1024+10 {
				return value.NewString("many")
			}
			return old
		}), false},
	}
	for _, rows := range []int{0, 1, 1023, 1024, 1025, 3*1024 + 7} {
		cases[fmt.Sprint(rows, " rows")] = struct {
			tb      *table.Table
			streams bool
		}{salesTable(rows, int64(rows), 10), true}
	}
	for name, c := range cases {
		for _, format := range []string{"csv", "sbin"} {
			t.Run(name+"/"+format, func(t *testing.T) {
				src := streamRuns(t, streamFlow(format, ""), streamPayload(format, c.tb))
				if want := map[bool][2]int{true: {1, 1}, false: {2, 0}}[c.streams]; src.decodes != want[0] || src.streams != want[1] {
					t.Errorf("the run decoded D.src %d times, %d of them streamed; want %d and %d", src.decodes, src.streams, want[0], want[1])
				}
			})
		}
	}
}

// TestStreamedSourceFailures: a record the csv decoder rejects after the
// first batch fails a streamed run with the error text of the same run
// decoding the upload whole, without decoding it again, and leaves no
// group-by's table in the result, nor a node in a dashboard's node
// cache. A context cancelled mid-stream ends the run with
// context.Canceled.
func TestStreamedSourceFailures(t *testing.T) {
	good := streamPayload("csv", salesTable(3000, 5, 10))
	bad := []byte(strings.Replace(string(good), "\n", "\nwest,x\"y,1,1,true\n", 1500))
	g := buildGraph(t, streamFlow("csv", ""))
	src := &lazySource{def: g.Nodes["src"].Def, node: g.Nodes["src"], payload: bad}
	res, err := streamRun(context.Background(), g, src)
	whole := &batch.Executor{Plan: dag.Optimize(g, dag.PlanOptions{}), Lazy: map[string]batch.Decoder{"src": func(func(*colstore.Batch) error) (*table.Table, error) {
		return registry.Decode(src.def, src.node.Schema, bad)
	}}}
	_, wantErr := whole.RunContext(context.Background(), g, &task.Env{}, nil)
	if err == nil || wantErr == nil || err.Error() != wantErr.Error() || !strings.Contains(err.Error(), "bare \"") {
		t.Fatalf("streamed run: %v\nwhole decode's run: %v", err, wantErr)
	}
	if _, built := res.Tables["by_product"]; built || src.decodes != 1 {
		t.Errorf("a failed stream left D.by_product %v after %d decodes, want none after the one decode", built, src.decodes)
	}
	p := dashboard.NewPlatform()
	p.Cache = dashboard.NewResultCache()
	f, err := flowfile.Parse("stream", streamFlow("csv", ""))
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Compile(f, map[string][]byte{"src.csv": bad})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err == nil || !strings.HasSuffix(err.Error(), wantErr.Error()) {
		t.Errorf("dashboard run: %v, want %v", err, wantErr)
	}
	if n := p.Cache.Stats().Entries; n != 0 {
		t.Errorf("a failed streamed run stored %d node cache entries", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src = &lazySource{def: g.Nodes["src"].Def, node: g.Nodes["src"], payload: good, cancel: cancel, cancelAt: 2}
	if _, err := streamRun(ctx, g, src); !errors.Is(err, context.Canceled) {
		t.Errorf("a run cancelled mid-stream: %v, want context.Canceled", err)
	}
}

// TestSharedLazySourceDecodedOnce: a lazy source that a materialized node
// reads besides the inline one is decoded once, whole, for both.
func TestSharedLazySourceDecodedOnce(t *testing.T) {
	for _, format := range []string{"csv", "sbin"} {
		src := streamRuns(t, streamFlow(format, "  +D.flags: D.src | T.all\n"), streamPayload(format, salesTable(3000, 9, 10)))
		if src.decodes != 1 || src.streams != 0 {
			t.Errorf("%s: D.src decoded %d times, %d streamed; want once, whole", format, src.decodes, src.streams)
		}
	}
}
