package enginetest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
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

// streamRun runs g's plan with D.src as a lazy source over payload, and
// the other sources, if any, as given.
func streamRun(ctx context.Context, g *dag.Graph, src *lazySource, sources map[string]*table.Table) (*batch.Result, error) {
	e := &batch.Executor{Plan: dag.Optimize(g, dag.PlanOptions{}), Lazy: map[string]batch.Decoder{"src": src.decode}}
	return e.RunContext(ctx, g, &task.Env{}, sources)
}

// streamRuns runs flow over payload three ways: with D.src lazy, so that
// the run may stream it into D.mid's consumers; over its table decoded
// whole; and in the naive reference over that table. Every data object
// must agree, cell for cell and kind for kind. It returns the lazy
// source, its counts as the run left them.
func streamRuns(t *testing.T, flow string, payload []byte, others map[string]*table.Table) *lazySource {
	t.Helper()
	g := buildGraph(t, flow)
	src := &lazySource{def: g.Nodes["src"].Def, node: g.Nodes["src"], payload: payload}
	res, err := streamRun(context.Background(), g, src, others)
	if err != nil {
		t.Fatal(err)
	}
	ran := *src
	whole, err := registry.Decode(src.def, src.node.Schema, payload)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]*table.Table{"src": whole}
	for name, tb := range others {
		sources[name] = tb
	}
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
// gives the same tables. So does a batch_join-shaped flow
// (streamedJoinCases).
func TestStreamedSourceDifferential(t *testing.T) {
	streamedJoinCases(t)
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
				src := streamRuns(t, streamFlow(format, ""), streamPayload(format, c.tb), nil)
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
	res, err := streamRun(context.Background(), g, src, nil)
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
	if _, err := streamRun(ctx, g, src, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("a run cancelled mid-stream: %v, want context.Canceled", err)
	}
}

// TestSharedLazySourceDecodedOnce: a lazy source that a materialized node
// reads besides the inline one is decoded once, whole, for both.
func TestSharedLazySourceDecodedOnce(t *testing.T) {
	for _, format := range []string{"csv", "sbin"} {
		src := streamRuns(t, streamFlow(format, "  +D.flags: D.src | T.all\n"), streamPayload(format, salesTable(3000, 9, 10)), nil)
		if src.decodes != 1 || src.streams != 0 {
			t.Errorf("%s: D.src decoded %d times, %d streamed; want once, whole", format, src.decodes, src.streams)
		}
	}
}

// joinStreamFlow is batch_join's shape over the upload src.<format> as
// D.src: an inline map into an inline inner join with D.dim that D.src
// probes, and a filter, then two group-bys and a filter into a sort and
// a limit, a top-7 heap ordered by a float column.
func joinStreamFlow(format string) string {
	return fmt.Sprintf(`
D:
  src: [project, year, bugs, score]
  dim: [project, tech]

D.src:
  source: data:src.%[1]s
  format: %[1]s

F:
  D.act: D.src | T.weight
  D.joined: (D.act, D.dim) | T.join_dim | T.recent
  +D.by_tech: D.joined | T.sum_tech
  +D.by_year: D.joined | T.sum_year
  +D.ranked: D.joined | T.latest | T.order | T.first

T:
  weight:
    type: map
    operator: expr
    expression: bugs * 2 + year
    output: wt
  join_dim:
    type: join
    left: act by project
    right: dim by project
    join_condition: inner
    project:
      act_project: project
      act_year: year
      dim_tech: tech
      act_wt: wt
      act_score: score
  recent:
    type: filter_by
    filter_expression: year >= 2002
  sum_tech:
    type: groupby
    groupby: [tech]
    aggregates:
      - operator: sum
        apply_on: wt
        out_field: total
  sum_year:
    type: groupby
    groupby: [year]
    aggregates:
      - operator: count
        out_field: n
      - operator: max
        apply_on: score
        out_field: best
  latest:
    type: filter_by
    filter_expression: year >= 2005
  order:
    type: sort
    orderby_column: [score DESC]
  first:
    type: limit
    limit: 7
`, format)
}

// joinFacts is D.src for joinStreamFlow: n rows, row i of project
// project(i), year 2000 + i%%10, and score score(i).
func joinFacts(n int, project func(i int) string, score func(i int) float64) *table.Table {
	tb := table.New(schema.MustFromNames("project", "year", "bugs", "score"))
	for i := range n {
		tb.AppendValues(value.NewString(project(i)), value.NewInt(int64(2000+i%10)), value.NewInt(int64(i%17)), value.NewFloat(score(i)))
	}
	return tb
}

// joinDim is D.dim: projects prefix0, prefix1, … prefix(n-1), each with
// one of three techs.
func joinDim(prefix string, n int) *table.Table {
	tb := table.New(schema.MustFromNames("project", "tech"))
	for p := range n {
		tb.AppendValues(value.NewString(fmt.Sprint(prefix, p)), value.NewString(fmt.Sprint("tech", p%3)))
	}
	return tb
}

// streamedJoinCases: an upload that an inline map feeds into an inline
// join as its probe side streams through the probe, the join's
// filter and into two group-bys and a top-7 heap a 1,024-row batch at a
// time, over csv and sbin, and gives the whole decode's tables and the
// reference's: at no rows, one, a batch less one, one, one more, and
// three and a bit; over a probe key whose dictionary grows after the
// first batch, keys that match no build row, kept rows that all arrive
// in the last batch, and sort-key ties across a batch boundary. A NaN
// sort key in a later batch declines the stream: the run decodes the
// upload whole and gives the same tables.
func streamedJoinCases(t *testing.T) {
	cyclic := func(i int) string { return fmt.Sprint("p", i%23) } // p20-p22 have no build row
	plain := func(i int) float64 { return float64(i % 5) }
	cases := map[string]struct {
		facts   *table.Table
		dim     *table.Table
		streams bool
	}{
		"growing dictionary": {joinFacts(5000, func(i int) string { return fmt.Sprint("p", i/300) }, plain), joinDim("p", 12), true},
		"no key matches":     {joinFacts(3*1024+7, cyclic, plain), joinDim("q", 20), true},
		"kept rows in the last batch": {joinFacts(3*1024+7, cyclic, func(i int) float64 {
			return float64(i%5) + 10*float64(b2i(i >= 3*1024))
		}), joinDim("p", 20), true},
		"ties across a batch boundary": {joinFacts(3*1024+7, cyclic, func(i int) float64 {
			return float64(i%3) + 10*float64(b2i(i >= 1015 && i < 1035))
		}), joinDim("p", 20), true},
		"NaN in a later batch": {joinFacts(3*1024+7, cyclic, func(i int) float64 {
			if i == 2*1024+7 { // year 2005: D.ranked's filter keeps it
				return math.NaN()
			}
			return plain(i)
		}), joinDim("p", 20), false},
	}
	for _, rows := range []int{0, 1, 1023, 1024, 1025, 3*1024 + 7} {
		cases[fmt.Sprint(rows, " rows")] = struct {
			facts   *table.Table
			dim     *table.Table
			streams bool
		}{joinFacts(rows, cyclic, plain), joinDim("p", 20), true}
	}
	for name, c := range cases {
		for _, format := range []string{"csv", "sbin"} {
			t.Run("join/"+name+"/"+format, func(t *testing.T) {
				src := streamRuns(t, joinStreamFlow(format), streamPayload(format, c.facts), map[string]*table.Table{"dim": c.dim})
				if want := map[bool][2]int{true: {1, 1}, false: {2, 0}}[c.streams]; src.decodes != want[0] || src.streams != want[1] {
					t.Errorf("the run decoded D.src %d times, %d of them streamed; want %d and %d", src.decodes, src.streams, want[0], want[1])
				}
			})
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestStreamedJoinAllocs: a batch_join-shaped run streams its facts
// through the probe into the group-bys and the heap, so it builds neither
// the facts table nor the joined one, and its objects do not grow with the
// rows: the same within 2 over 3,079 rows (four batches) and 30,727
// (thirty-one). The joined table Result.Table rebuilds from both inputs is
// the one the optimizer-off run builds.
func TestStreamedJoinAllocs(t *testing.T) {
	g := buildGraph(t, joinStreamFlow("sbin"))
	dim := map[string]*table.Table{"dim": joinDim("p", 20)}
	objects := map[int]float64{}
	for _, n := range []int{3*1024 + 7, 30*1024 + 7} {
		facts := joinFacts(n, func(i int) string { return fmt.Sprint("p", i%23) }, func(i int) float64 { return float64(i % 5) })
		src := &lazySource{def: g.Nodes["src"].Def, node: g.Nodes["src"], payload: streamPayload("sbin", facts)}
		res, err := streamRun(context.Background(), g, src, dim)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"src", "act", "joined"} {
			if _, built := res.Tables[name]; built {
				t.Errorf("the run built D.%s", name)
			}
		}
		if src.streams != 1 {
			t.Fatalf("D.src streamed %d times, want once", src.streams)
		}
		got, _ := res.Table("joined")
		off := runPlanned(t, g, dag.AsWritten(g), map[string]*table.Table{"src": facts, "dim": dim["dim"]}, batch.ColumnarOff)
		if want := off.Tables["joined"]; want == nil || got == nil || !want.Equal(got) {
			t.Fatalf("Result.Table(joined) is not the optimizer-off run's D.joined:\n%v\nwant:\n%v", got, want)
		}
		objects[n] = testing.AllocsPerRun(5, func() {
			if _, err := streamRun(context.Background(), g, src, dim); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("objects per run: %v", objects)
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	if small, big := objects[3*1024+7], objects[30*1024+7]; big-small > 2 {
		t.Errorf("a streamed join run allocates %.0f objects over 3,079 rows and %.0f over 30,727", small, big)
	}
}
