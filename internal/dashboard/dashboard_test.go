package dashboard

import (
	"strings"
	"testing"

	"shareinsights/internal/analyze"
	"shareinsights/internal/connector"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/task"
)

// tweetCSV is a small fixture in the shape of the IPL tweet data.
const tweetCSV = `Fri May 03 10:00:00 +0000 2013,kohli on fire tonight,Mumbai
Fri May 03 11:00:00 +0000 2013,dhoni and kohli both scored,Chennai
Sat May 04 09:00:00 +0000 2013,dhoni finishes off in style,Chennai
Sat May 04 10:00:00 +0000 2013,no cricket content here,Delhi
Mon May 27 10:00:00 +0000 2013,kohli century!,Pune
`

// processingFlow is a compact data-processing dashboard in the paper's
// Appendix A.1 style.
const processingFlow = `
D:
  ipl_tweets: [postedTime, body, location]
  players_tweets: [date, player, count]

D.ipl_tweets:
  source: mem:tweets.csv
  format: csv

F:
  D.players_tweets: D.ipl_tweets | T.players_pipeline | T.players_count

  D.players_tweets:
    endpoint: true
    publish: players_tweets

T:
  players_pipeline:
    parallel: [T.norm_ipldate, T.extract_players]
  norm_ipldate:
    type: map
    operator: date
    transform: postedTime
    input_format: 'E MMM dd HH:mm:ss Z yyyy'
    output_format: yyyy-MM-dd
    output: date
  extract_players:
    type: map
    operator: extract
    transform: body
    dict: players.txt
    output: player
  players_count:
    type: groupby
    groupby: [date, player]
`

// consumptionFlow reads the published object and builds an interactive
// dashboard over it.
const consumptionFlow = `
L:
  description: Player Tweets
  rows:
    - [span4: W.duration, span8: W.players]

W:
  duration:
    type: Slider
    source: ['2013-05-02', '2013-05-27']
    static: true
    range: true
    slider_type: date

  players:
    type: WordCloud
    source: D.players_tweets | T.filter_by_date | T.aggregate_by_player
    text: player
    size: noOfTweets

T:
  filter_by_date:
    type: filter_by
    filter_by: [date]
    filter_source: W.duration
  aggregate_by_player:
    type: groupby
    groupby: [player]
    aggregates:
      - operator: sum
        apply_on: count
        out_field: noOfTweets
`

func newTestPlatform(t *testing.T) *Platform {
	t.Helper()
	p := NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"tweets.csv": []byte(tweetCSV)},
	})
	return p
}

var testResources = map[string][]byte{
	"players.txt": []byte("kohli,Virat Kohli\ndhoni,MS Dhoni\n"),
}

func runProcessing(t *testing.T, p *Platform) *Dashboard {
	t.Helper()
	f, err := flowfile.Parse("ipl_processing", processingFlow)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := p.Compile(f, testResources)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := d.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return d
}

func TestEndToEndProcessing(t *testing.T) {
	p := newTestPlatform(t)
	d := runProcessing(t, p)
	out, ok := d.Endpoint("players_tweets")
	if !ok {
		t.Fatal("players_tweets endpoint missing")
	}
	// Expected: (2013-05-03, kohli:2? No — kohli appears in 2 tweets on
	// 05-03, dhoni in 1; 05-04 dhoni 1; 05-27 kohli 1.)
	if out.Len() != 4 {
		t.Fatalf("groups = %d, want 4:\n%s", out.Len(), out.Format(0))
	}
	if got := out.Schema().String(); got != "[date, player, count]" {
		t.Fatalf("schema = %s", got)
	}
	if out.Cell(0, "date").Str() != "2013-05-03" || out.Cell(0, "player").Str() != "MS Dhoni" {
		t.Errorf("first group wrong:\n%s", out.Format(0))
	}
	if out.Cell(1, "player").Str() != "Virat Kohli" || out.Cell(1, "count").Int() != 2 {
		t.Errorf("kohli count wrong:\n%s", out.Format(0))
	}
	// Published to the catalog.
	obj, ok := p.Catalog.Resolve("players_tweets")
	if !ok {
		t.Fatal("players_tweets not published")
	}
	if obj.Dashboard != "ipl_processing" || obj.Data.Len() != 4 {
		t.Errorf("published object: %+v", obj)
	}
}

func TestEndToEndConsumptionAndInteraction(t *testing.T) {
	p := newTestPlatform(t)
	runProcessing(t, p)

	f, err := flowfile.Parse("ipl_consumption", consumptionFlow)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := p.Compile(f, nil)
	if err != nil {
		t.Fatalf("compile consumption: %v", err)
	}
	if err := d.Run(); err != nil {
		t.Fatalf("run consumption: %v", err)
	}
	players, _ := d.Widget("players")
	if players.Data == nil {
		t.Fatal("players widget has no data")
	}
	// Slider defaults to the full range, which excludes nothing in the
	// published data except dates outside 05-02..05-27 (none).
	if players.Data.Len() != 2 {
		t.Fatalf("initial word cloud rows = %d:\n%s", players.Data.Len(), players.Data.Format(0))
	}
	kohliTotal := players.Data.Cell(players.Data.Len()-1, "noOfTweets").Int()
	if kohliTotal != 3 {
		t.Errorf("kohli total = %d, want 3:\n%s", kohliTotal, players.Data.Format(0))
	}
	// Narrow the slider: only May 3-4 remain, kohli drops to 2.
	if err := d.SelectRange("duration", "2013-05-03", "2013-05-04"); err != nil {
		t.Fatalf("select range: %v", err)
	}
	if players.Data.Len() != 2 {
		t.Fatalf("filtered rows = %d:\n%s", players.Data.Len(), players.Data.Format(0))
	}
	if got := players.Data.Cell(players.Data.Len()-1, "noOfTweets").Int(); got != 2 {
		t.Errorf("filtered kohli total = %d, want 2:\n%s", got, players.Data.Format(0))
	}
	// Narrow to a single day with only dhoni.
	if err := d.SelectRange("duration", "2013-05-04", "2013-05-04"); err != nil {
		t.Fatal(err)
	}
	if players.Data.Len() != 1 || players.Data.Cell(0, "player").Str() != "MS Dhoni" {
		t.Errorf("single-day filter wrong:\n%s", players.Data.Format(0))
	}
}

func TestTransferOptimization(t *testing.T) {
	// With optimization: the widget endpoint is the published groupby
	// output. Without: the raw shared table ships and the whole pipeline
	// runs client-side. Results must agree; transfer must differ.
	run := func(optimize bool) (*Dashboard, int) {
		p := newTestPlatform(t)
		p.Optimize = optimize
		runProcessing(t, p)
		f, err := flowfile.Parse("ipl_consumption", consumptionFlow)
		if err != nil {
			t.Fatal(err)
		}
		d, err := p.Compile(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		return d, d.TransferredBytes
	}
	dOpt, optBytes := run(true)
	dRaw, rawBytes := run(false)
	wOpt, _ := dOpt.Widget("players")
	wRaw, _ := dRaw.Widget("players")
	if !wOpt.Data.Equal(wRaw.Data) {
		t.Errorf("optimized and unoptimized widget data differ:\n%s\nvs\n%s",
			wOpt.Data.Format(0), wRaw.Data.Format(0))
	}
	if optBytes > rawBytes {
		t.Errorf("optimization increased transfer: %d > %d", optBytes, rawBytes)
	}
	// In this pipeline the filter is first, so the split happens at
	// stage 0 and both ship the same table — the stronger assertion
	// lives in the E6 bench where a static prefix exists. Here we only
	// require non-regression and agreement.
}

func TestAdhocQuery(t *testing.T) {
	p := newTestPlatform(t)
	d := runProcessing(t, p)
	out, err := d.AdhocQuery("players_tweets", "player", "sum", "count")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("groups = %d:\n%s", out.Len(), out.Format(0))
	}
	if out.Cell(1, "sum_count").Int() != 3 {
		t.Errorf("kohli sum = %v:\n%s", out.Cell(1, "sum_count"), out.Format(0))
	}
	if _, err := d.AdhocQuery("nope", "a", "sum", "b"); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestRenderHTML(t *testing.T) {
	p := newTestPlatform(t)
	runProcessing(t, p)
	f, err := flowfile.Parse("ipl_consumption", consumptionFlow)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Compile(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := d.RenderHTML(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	for _, want := range []string{
		"<title>Player Tweets</title>",
		`data-widget="duration"`,
		`data-widget="players"`,
		"Virat Kohli",
		`class="col span8"`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("rendered page missing %q", want)
		}
	}
	var txt strings.Builder
	if err := d.RenderText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "Virat Kohli") {
		t.Errorf("text render missing data:\n%s", txt.String())
	}
}

func TestCompileErrors(t *testing.T) {
	p := newTestPlatform(t)
	runProcessing(t, p) // publish players_tweets so only the intended error fires
	cases := []struct {
		name, src, wantSub string
	}{
		{
			"unknown widget type",
			"W:\n  x:\n    type: HoloDeck\n    source: D.players_tweets\n",
			"unknown type",
		},
		{
			"missing required attr",
			"W:\n  x:\n    type: WordCloud\n    source: D.players_tweets\n    size: count\n",
			"missing required data attribute",
		},
		{
			"unresolved shared input",
			"W:\n  x:\n    type: WordCloud\n    source: D.never_published\n    text: a\n    size: b\n",
			"no schema",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := flowfile.Parse("bad", c.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err = p.Compile(f, nil)
			if err == nil {
				t.Fatalf("expected compile error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q missing %q", err, c.wantSub)
			}
		})
	}
}

func TestWidgetBindingFailsOnBadColumn(t *testing.T) {
	p := newTestPlatform(t)
	runProcessing(t, p)
	src := `
W:
  players:
    type: WordCloud
    source: D.players_tweets
    text: no_such_column
    size: count
`
	f, err := flowfile.Parse("bad_binding", src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Compile(f, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := d.Run(); err == nil || !strings.Contains(err.Error(), "no_such_column") {
		t.Fatalf("expected binding error, got %v", err)
	}
}

func TestDependents(t *testing.T) {
	p := newTestPlatform(t)
	runProcessing(t, p)
	f, err := flowfile.Parse("ipl_consumption", consumptionFlow)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Compile(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	deps := d.Dependents("duration")
	if len(deps) != 1 || deps[0] != "players" {
		t.Errorf("Dependents(duration) = %v", deps)
	}
}

func TestWidgetFanInSource(t *testing.T) {
	// A widget source may fan in multiple data objects, exactly like a
	// flow (§3.5 widgets are configured with pipelines).
	p := newTestPlatform(t)
	src := `
D:
  counts: [player, n]
  meta: [player, team]

D.counts:
  source: mem:counts.csv
  format: csv

D.meta:
  source: mem:meta.csv
  format: csv

W:
  grid:
    type: Grid
    source: (D.counts, D.meta) | T.j

T:
  j:
    type: join
    left: counts by player
    right: meta by player
    join_condition: inner
    project:
      counts_player: player
      counts_n: n
      meta_team: team

L:
  rows:
    - [span12: W.grid]
`
	p.Connectors = connector.NewRegistry(connector.Options{Mem: map[string][]byte{
		"counts.csv": []byte("kohli,3\ndhoni,2\n"),
		"meta.csv":   []byte("kohli,RCB\ndhoni,CSK\n"),
	}})
	f, err := flowfile.Parse("fanin", src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Compile(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	grid, _ := d.Widget("grid")
	if grid.Data.Len() != 2 || !grid.Data.Schema().Has("team") {
		t.Errorf("fan-in widget data:\n%s", grid.Data.Format(0))
	}
}

// TestResolvedOnce: one resolve per Compile and per lint, and within it
// one parse per task definition however many flows, parallel composites
// and widget sources refer to it.
func TestResolvedOnce(t *testing.T) {
	p := NewPlatform()
	parses := 0
	if err := p.Tasks.Register("counted", func(*flowfile.Node) (task.Spec, error) {
		parses++
		return task.NewFilter("v > 0")
	}); err != nil {
		t.Fatal(err)
	}
	f, err := flowfile.Parse("once", `
D:
  raw: [k, v]
D.raw:
  source: mem:raw.csv
F:
  D.a: D.raw | T.keep
  D.b: D.a | T.keep
  +D.c: D.b | T.keep | T.both
T:
  keep:
    type: counted
  up:
    type: map
    operator: upper
    transform: k
  both:
    parallel: [T.keep, T.up]
W:
  grid:
    type: Grid
    source: D.c | T.keep
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Compile(f, nil); err != nil {
		t.Fatal(err)
	}
	if parses != 1 {
		t.Errorf("Compile parsed T.keep %d times, want 1", parses)
	}
	parses = 0
	report, _ := analyze.LintWithFacts(f, analyze.Options{Tasks: p.Tasks, Connectors: p.Connectors})
	if report.HasErrors() {
		t.Fatalf("lint: %v", report.Findings)
	}
	if parses != 1 {
		t.Errorf("LintWithFacts parsed T.keep %d times, want 1", parses)
	}
}
