package flowfile

import (
	"strings"
	"testing"
)

// iplProcessing is a condensed version of the paper's Appendix A.1
// data-processing dashboard, exercising every syntactic construct:
// path => column schemas, multi-line pipelines, fan-in joins, aggregate
// list items, parallel tasks and publish/endpoint details.
const iplProcessing = `
D:
  ipl_tweets: [
    postedTime => created_at,
    body => text,
    displayName => user.location
  ]
  players_tweets: [date, player, count]
  team_players: [player, team_fullName, team, player_id, noOfTweets]
  player_tweets: [player, team, date, player_id, team_fullName, noOfTweets]
  tagcloud_tweets_raw: [date, word, count]
  tagcloud_tweets: [date, word, count]

F:
  D.players_tweets: D.ipl_tweets |
    T.players_pipeline |
    T.players_count

  D.player_tweets: (
    D.players_tweets,
    D.team_players
  ) | T.join_player_team

  D.tagcloud_tweets_raw: D.ipl_tweets | T.word_date_extraction | T.words_count
  D.tagcloud_tweets: D.tagcloud_tweets_raw | T.topwords

  D.players_tweets:
    endpoint: true
    publish: players_tweets

T:
  players_pipeline:
    parallel: [T.norm_ipldate, T.extract_players]
  word_date_extraction:
    parallel: [T.norm_ipldate, T.extract_words]
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
  extract_words:
    type: map
    operator: extract_words
    transform: body
    output: word
  join_player_team:
    type: join
    left: players_tweets by player
    right: team_players by player
    join_condition: left outer
    project:
      players_tweets_date: date
      players_tweets_player: player
      players_tweets_count: noOfTweets
  players_count:
    type: groupby
    groupby: [date, player]
  words_count:
    type: groupby
    groupby: [date, word]
  topwords:
    type: topn
    groupby: [date]
    orderby_column: [count DESC]
    limit: 20
`

// iplConsumption is a condensed Appendix A.2 consumption dashboard.
const iplConsumption = `
L:
  description: Clash of Titans
  rows:
    - [span12: W.teams]
    - [span11: W.ipl_duration]
    - [span6: W.word_tweets, span5: W.region_tweets]

W:
  ipl_duration:
    type: Slider
    source: ['2013-05-02', '2013-05-27']
    static: true
    range: true
    slider_type: date

  teams:
    type: List
    source: D.dim_teams
    text: team

  word_tweets:
    type: WordCloud
    source: D.tagcloud_tweets |
      T.filter_by_date |
      T.aggregate_by_word
    text: word
    size: count
    show_tooltip: true
    tooltip_text: [word, count]

  region_tweets:
    type: MapMarker
    source: D.team_region_tweets | T.filter_by_date
    country: IND
    markers:
      - marker1:
          type: circle_marker
          latlong_value: point_one
          markersize: noOfTweets

T:
  filter_by_date:
    type: filter_by
    filter_by: [date]
    filter_source: W.ipl_duration

  aggregate_by_word:
    type: groupby
    groupby: [word]
    aggregates:
      - operator: sum
        apply_on: count
        out_field: count
`

func TestParseIPLProcessing(t *testing.T) {
	f, err := Parse("ipl_processing", iplProcessing)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !f.DataProcessingOnly() {
		t.Errorf("expected data-processing mode")
	}
	d := f.Data["ipl_tweets"]
	if d == nil || d.Schema == nil {
		t.Fatalf("ipl_tweets schema missing")
	}
	if got := d.Schema.String(); got != "[postedTime => created_at, body => text, displayName => user.location]" {
		t.Errorf("schema = %s", got)
	}
	if len(f.Flows) != 4 {
		t.Fatalf("flows = %d, want 4", len(f.Flows))
	}
	join := f.Flows[1]
	if len(join.Pipeline.Inputs) != 2 {
		t.Errorf("join fan-in = %d, want 2", len(join.Pipeline.Inputs))
	}
	if join.Pipeline.Tasks[0].Name != "join_player_team" {
		t.Errorf("join task = %s", join.Pipeline.Tasks[0])
	}
	pt := f.Data["players_tweets"]
	if !pt.Endpoint || pt.Publish != "players_tweets" {
		t.Errorf("players_tweets endpoint=%v publish=%q", pt.Endpoint, pt.Publish)
	}
	if f.Tasks["players_pipeline"].Type != "parallel" {
		t.Errorf("players_pipeline type = %q", f.Tasks["players_pipeline"].Type)
	}
	if got := f.Tasks["players_count"].Config.StrList("groupby"); len(got) != 2 || got[0] != "date" {
		t.Errorf("players_count groupby = %v", got)
	}
	if err := f.Validate(false); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseIPLConsumption(t *testing.T) {
	f, err := Parse("ipl_consumption", iplConsumption)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Layout == nil || f.Layout.Description != "Clash of Titans" {
		t.Fatalf("layout = %+v", f.Layout)
	}
	if len(f.Layout.Rows) != 3 {
		t.Fatalf("rows = %d", len(f.Layout.Rows))
	}
	last := f.Layout.Rows[2]
	if len(last.Cells) != 2 || last.Cells[0].Span != 6 || last.Cells[1].Widget != "region_tweets" {
		t.Errorf("row 3 = %+v", last)
	}
	slider := f.Widgets["ipl_duration"]
	if slider.Source != nil || len(slider.Static) != 2 || slider.Static[0] != "2013-05-02" {
		t.Errorf("slider static = %v", slider.Static)
	}
	wc := f.Widgets["word_tweets"]
	if wc.Source == nil || len(wc.Source.Tasks) != 2 {
		t.Fatalf("word cloud source = %v", wc.Source)
	}
	if wc.Source.Tasks[1].Name != "aggregate_by_word" {
		t.Errorf("word cloud task = %v", wc.Source.Tasks[1])
	}
	aggs := f.Tasks["aggregate_by_word"].Config.Get("aggregates")
	if aggs == nil || aggs.Kind != ListNode || len(aggs.Items) != 1 {
		t.Fatalf("aggregates = %+v", aggs)
	}
	item := aggs.Items[0]
	if item.Str("operator") != "sum" || item.Str("apply_on") != "count" {
		t.Errorf("aggregate item = %+v", item)
	}
	// Consumption mode: shared inputs come from the platform catalog.
	shared := f.SharedInputs()
	if len(shared) == 0 {
		t.Errorf("expected shared inputs, got none")
	}
	if err := f.Validate(true); err != nil {
		t.Errorf("Validate(allowShared): %v", err)
	}
	if err := f.Validate(false); err == nil {
		t.Errorf("Validate(strict) should fail for unresolved shared inputs")
	}
}

func TestRoundTrip(t *testing.T) {
	f, err := Parse("ipl_processing", iplProcessing)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	text := f.String()
	f2, err := Parse("ipl_processing", text)
	if err != nil {
		t.Fatalf("reparse canonical form: %v\n%s", err, text)
	}
	if f2.String() != text {
		t.Errorf("canonical form is not a fixed point:\n--- first\n%s\n--- second\n%s", text, f2.String())
	}
	if len(f2.Flows) != len(f.Flows) || len(f2.Tasks) != len(f.Tasks) {
		t.Errorf("round trip lost entries: flows %d->%d tasks %d->%d",
			len(f.Flows), len(f2.Flows), len(f.Tasks), len(f2.Tasks))
	}
}

func TestEndpointAlias(t *testing.T) {
	src := `
F:
  +D.summary:
    D.raw | T.count

T:
  count:
    type: groupby
    groupby: [k]

D.raw:
  source: raw.csv
  format: csv
`
	f, err := Parse("alias", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !f.Data["summary"].Endpoint {
		t.Errorf("+D alias did not set endpoint")
	}
	if len(f.Flows) != 1 || f.Flows[0].Pipeline.Inputs[0].Name != "raw" {
		t.Fatalf("flows = %+v", f.Flows)
	}
}

func TestFanOut(t *testing.T) {
	src := `
F:
  (D.a, D.b): D.raw | T.split

T:
  split:
    type: filter_by
    filter_expression: x > 0

D.raw:
  source: raw.csv
`
	f, err := Parse("fanout", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.Flows) != 1 || len(f.Flows[0].Outputs) != 2 {
		t.Fatalf("fan-out outputs = %+v", f.Flows)
	}
	if f.Flows[0].Outputs[1].Name != "b" {
		t.Errorf("second output = %s", f.Flows[0].Outputs[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown section", "X:\n  a: b\n", "unknown section"},
		{"task without type", "T:\n  t1:\n    groupby: [a]\n", "no type"},
		{"bad pipeline input", "F:\n  D.out: T.x | T.y\n", "not a data object"},
		{"bad span", "L:\n  rows:\n    - [span13: W.x]\n", "span must be"},
		{"duplicate task", "T:\n  t1:\n    type: map\n  t1:\n    type: map\n", "duplicate"},
		{"unbalanced bracket", "D:\n  a: [x, y\n", "unbalanced"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("bad", c.src)
			if err == nil {
				t.Fatalf("expected error containing %q", c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestValidateCatchesDanglingRefs(t *testing.T) {
	src := `
F:
  D.out: D.raw | T.missing

D.raw:
  source: raw.csv

W:
  chart:
    type: Pie
    source: D.out | T.also_missing

L:
  rows:
    - [span12: W.ghost]
`
	f, err := Parse("dangling", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	err = f.Validate(false)
	if err == nil {
		t.Fatal("expected validation errors")
	}
	msg := err.Error()
	for _, want := range []string{"T.missing", "T.also_missing", "W.ghost"} {
		if !strings.Contains(msg, want) {
			t.Errorf("validation message missing %q: %s", want, msg)
		}
	}
}

func TestDuplicateProducer(t *testing.T) {
	src := `
F:
  D.out: D.raw | T.t
  D.out: D.raw | T.t

T:
  t:
    type: filter_by
    filter_expression: x > 0

D.raw:
  source: raw.csv
`
	f, err := Parse("dup", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := f.Validate(false); err == nil || !strings.Contains(err.Error(), "more than one flow") {
		t.Errorf("expected duplicate-producer error, got %v", err)
	}
}

func TestParseRef(t *testing.T) {
	r, err := ParseRef("D.tweets")
	if err != nil || r.Section != "D" || r.Name != "tweets" {
		t.Errorf("ParseRef(D.tweets) = %v, %v", r, err)
	}
	for _, bad := range []string{"tweets", "X.tweets", "D.", ".x", ""} {
		if _, err := ParseRef(bad); err == nil {
			t.Errorf("ParseRef(%q) should fail", bad)
		}
	}
}

func TestCommentsAndQuotes(t *testing.T) {
	src := `
# full line comment
D:
  a: [x, y] # trailing comment

D.a:
  source: 'http://example.com/data?q=a#frag'  # the # inside quotes stays
  format: json
`
	f, err := Parse("comments", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := f.Data["a"].Prop("source"); got != "http://example.com/data?q=a#frag" {
		t.Errorf("source = %q", got)
	}
}

// TestParseTabOnBracketContinuation: a tab counts as four spaces on every
// physical line, a bracket continuation line included, so the canonical
// text of a list continued over lines re-parses to itself.
func TestParseTabOnBracketContinuation(t *testing.T) {
	src := "D:\n  a: [x,\n  y\tz]\n"
	f, err := Parse("tabs", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Data["a"].Schema.Names(); len(got) != 2 || got[1] != "y    z" {
		t.Fatalf("columns %q, want [x \"y    z\"]", got)
	}
	canon := f.String()
	again, err := Parse("tabs", canon)
	if err != nil || again.String() != canon {
		t.Fatalf("canonical text %q is not a fixed point (%v)", canon, err)
	}
}

// TestDataErrorsNameObjectAndLine: an error in a data object's schema
// list or detail block names the object and exactly one line, the
// innermost — outside the D section too, where it used to name neither,
// and inside it, where a detail block's error used to name two.
func TestDataErrorsNameObjectAndLine(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"D.a:\n  schema: [x, x]\n", `line 2: data "a": schema: duplicate column "x"`},
		{"D.a: [x, \" => y\"]\n", `line 1: data "a": mapping " => y" has no path`},
		{"D:\n  a:\n    schema: foo\n", `line 3: data "a": schema must be a list`},
		{"F:\n  +D.a:\n    http_headers:\n      x: [1]\n", `line 4: data "a": property http_headers.x must be scalar`},
	} {
		if _, err := Parse("data", c.src); err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.src, err, c.want)
		}
	}
}

// TestParseRejectsEmptyNames: an `=>` mapping needs a path and a data
// object a name; each of these used to parse to a file whose canonical
// text does not re-parse.
func TestParseRejectsEmptyNames(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"D:\n  a: [=>=>]\n", `line 2: data "a": mapping "=>=>" has no path`},
		{"D:\n  a: [x, => y]\n", `line 2: data "a": mapping "=> y" has no path`},
		{"D.:\n  source: x\n", `line 1: data object "D." has no name`},
		{"+D.:\n  source: x\n", `line 1: data object "+D." has no name`},
		{"+D.: D.a | T.t\n", `line 1: data object "+D." has no name`},
		{"D:\n  D.:\n    source: x\n", `line 2: data object "D." has no name`},
		{"F:\n  D.:\n    publish: x\n", `line 2: data object "D." has no name`},
	} {
		if _, err := Parse("empty", c.src); err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.src, err, c.want)
		}
	}
}
