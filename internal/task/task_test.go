package task

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/value"
)

// cfg parses a task property block from flow-file text.
func cfg(t *testing.T, src string) *flowfile.TaskDef {
	t.Helper()
	f, err := flowfile.Parse("test", "T:\n"+indent(src, 2))
	if err != nil {
		t.Fatalf("parse task config: %v", err)
	}
	if len(f.TaskOrder) != 1 {
		t.Fatalf("want 1 task, got %d", len(f.TaskOrder))
	}
	return f.Tasks[f.TaskOrder[0]]
}

func indent(s string, n int) string {
	pad := strings.Repeat(" ", n)
	lines := strings.Split(strings.TrimLeft(s, "\n"), "\n")
	for i, l := range lines {
		if strings.TrimSpace(l) != "" {
			lines[i] = pad + l
		}
	}
	return strings.Join(lines, "\n")
}

func parseSpec(t *testing.T, src string) Spec {
	t.Helper()
	def := cfg(t, src)
	f := flowfile.NewFile("test")
	if err := f.AddTask(def); err != nil {
		t.Fatal(err)
	}
	parsed, _, failed := NewRegistry().Parse(f)
	spec, err := parsed[def.Name], failed[def.Name]
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return spec
}

func mkTable(t *testing.T, cols string, rows ...[]any) *table.Table {
	t.Helper()
	s := schema.MustFromNames(strings.Split(cols, ",")...)
	tbl := table.New(s)
	for _, r := range rows {
		row := make(table.Row, len(r))
		for i, c := range r {
			row[i] = value.FromAny(c)
		}
		tbl.Append(row)
	}
	return tbl
}

func TestFilterExpression(t *testing.T) {
	spec := parseSpec(t, `
classification:
  type: filter_by
  filter_expression: rating < 3
`)
	in := mkTable(t, "item,rating",
		[]any{"a", 1}, []any{"b", 3}, []any{"c", 2}, []any{"d", 5})
	out, err := spec.Exec(&Env{}, []*table.Table{in}, []string{"reviews"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("rows = %d, want 2", out.Len())
	}
	if out.Cell(0, "item").Str() != "a" || out.Cell(1, "item").Str() != "c" {
		t.Errorf("wrong rows: %s", out.Format(0))
	}
}

func TestFilterExpressionBindError(t *testing.T) {
	spec := parseSpec(t, `
f:
  type: filter_by
  filter_expression: missing_col > 1
`)
	in := mkTable(t, "a,b", []any{1, 2})
	if _, err := spec.Exec(&Env{}, []*table.Table{in}, nil); err == nil {
		t.Fatal("expected bind error for missing column")
	}
}

// TestFilterMissingColumnInSourceOrder: of several missing columns, Out
// names the first one the expression reads, every time.
func TestFilterMissingColumnInSourceOrder(t *testing.T) {
	f, err := NewFilter("alpha > 1 and beta > 2 and gamma > 3")
	if err != nil {
		t.Fatal(err)
	}
	in := []Input{{Name: "in", Schema: schema.MustFromNames("x")}}
	for range 50 {
		_, err := f.Out(in)
		if err == nil || !strings.Contains(err.Error(), `"alpha"`) {
			t.Fatalf("Out error = %v, want one naming alpha", err)
		}
	}
}

func TestFilterInteraction(t *testing.T) {
	spec := parseSpec(t, `
filter_projects:
  type: filter_by
  filter_by: [project]
  filter_source: W.project_category_bubble
  filter_val: [text]
`)
	in := mkTable(t, "project,stat", []any{"pig", 1}, []any{"hive", 2}, []any{"spark", 3})
	// No selection: pass-through.
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Errorf("no-selection rows = %d, want 3", out.Len())
	}
	// With a selection.
	env := &Env{WidgetValue: func(w, col string) ([]string, bool) {
		if w == "project_category_bubble" && col == "text" {
			return []string{"pig"}, true
		}
		return nil, false
	}}
	out, err = spec.Exec(env, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Cell(0, "project").Str() != "pig" {
		t.Errorf("selection filter failed: %s", out.Format(0))
	}
}

func TestFilterRangeSelection(t *testing.T) {
	spec := parseSpec(t, `
filter_by_date:
  type: filter_by
  filter_by: [date]
  filter_source: W.ipl_duration
`)
	in := mkTable(t, "date,n",
		[]any{"2013-05-01", 1}, []any{"2013-05-10", 2}, []any{"2013-05-30", 3})
	env := &Env{WidgetValue: func(w, col string) ([]string, bool) {
		return []string{"range:", "2013-05-02", "2013-05-27"}, true
	}}
	out, err := spec.Exec(env, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Cell(0, "n").Int() != 2 {
		t.Errorf("range filter: %s", out.Format(0))
	}
}

func TestGroupByDefaultCount(t *testing.T) {
	spec := parseSpec(t, `
players_count:
  type: groupby
  groupby: [date, player]
`)
	in := mkTable(t, "date,player,body",
		[]any{"d1", "kohli", "x"}, []any{"d1", "kohli", "y"}, []any{"d1", "dhoni", "z"},
		[]any{"d2", "kohli", "w"})
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := mkTable(t, "date,player,count",
		[]any{"d1", "dhoni", 1}, []any{"d1", "kohli", 2}, []any{"d2", "kohli", 1})
	if !out.Equal(want) {
		t.Errorf("groupby default count:\n%s\nwant:\n%s", out.Format(0), want.Format(0))
	}
}

func TestGroupByAggregates(t *testing.T) {
	spec := parseSpec(t, `
get_svn_jira_count:
  type: groupby
  groupby: [project, year]
  aggregates:
    - operator: sum
      apply_on: noOfCheckins
      out_field: total_checkins
    - operator: sum
      apply_on: noOfBugs
      out_field: total_jira
    - operator: avg
      apply_on: noOfCheckins
      out_field: avg_checkins
`)
	in := mkTable(t, "project,year,noOfCheckins,noOfBugs",
		[]any{"pig", 2013, 10, 3},
		[]any{"pig", 2013, 20, 5},
		[]any{"hive", 2013, 7, 1})
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Schema().String(); got != "[project, year, total_checkins, total_jira, avg_checkins]" {
		t.Fatalf("schema = %s", got)
	}
	if out.Len() != 2 {
		t.Fatalf("groups = %d", out.Len())
	}
	// hive sorts before pig.
	if out.Cell(0, "total_checkins").Int() != 7 || out.Cell(1, "total_checkins").Int() != 30 {
		t.Errorf("sums wrong:\n%s", out.Format(0))
	}
	if out.Cell(1, "avg_checkins").Float() != 15 {
		t.Errorf("avg = %v", out.Cell(1, "avg_checkins"))
	}
}

func TestJoinProjection(t *testing.T) {
	spec := parseSpec(t, `
join_player_team:
  type: join
  left: players_tweets by player
  right: team_players by player
  join_condition: left outer
  project:
    players_tweets_date: date
    players_tweets_player: player
    players_tweets_count: noOfTweets
    team_players_team: team
`)
	left := mkTable(t, "date,player,count",
		[]any{"d1", "kohli", 5}, []any{"d1", "nobody", 1})
	right := mkTable(t, "player,team", []any{"kohli", "RCB"})
	out, err := spec.Exec(&Env{}, []*table.Table{left, right}, []string{"players_tweets", "team_players"})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Schema().String(); got != "[date, player, noOfTweets, team]" {
		t.Fatalf("schema = %s", got)
	}
	if out.Len() != 2 {
		t.Fatalf("rows = %d", out.Len())
	}
	if out.Cell(0, "team").Str() != "RCB" {
		t.Errorf("row 0: %s", out.Format(0))
	}
	if !out.Cell(1, "team").IsNull() {
		t.Errorf("left outer should null-fill: %s", out.Format(0))
	}
}

func TestJoinInputOrderInsensitive(t *testing.T) {
	spec := parseSpec(t, `
j:
  type: join
  left: a by k
  right: b by k
  join_condition: inner
`)
	ta := mkTable(t, "k,x", []any{1, "ax"})
	tb := mkTable(t, "k,y", []any{1, "by"})
	// Feed inputs in reversed order: (b, a).
	out, err := spec.Exec(&Env{}, []*table.Table{tb, ta}, []string{"b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("rows = %d", out.Len())
	}
	if out.Cell(0, "a_x").Str() != "ax" || out.Cell(0, "b_y").Str() != "by" {
		t.Errorf("swapped join wrong: %s", out.Format(0))
	}
}

func TestJoinConditions(t *testing.T) {
	left := mkTable(t, "k,x", []any{1, "a"}, []any{2, "b"})
	right := mkTable(t, "k,y", []any{2, "B"}, []any{3, "C"})
	cases := []struct {
		cond string
		rows int
	}{
		{"inner", 1}, {"left outer", 2}, {"right outer", 2}, {"full outer", 3},
	}
	for _, c := range cases {
		t.Run(c.cond, func(t *testing.T) {
			spec := parseSpec(t, fmt.Sprintf(`
j:
  type: join
  left: l by k
  right: r by k
  join_condition: %s
`, c.cond))
			out, err := spec.Exec(&Env{}, []*table.Table{left, right}, []string{"l", "r"})
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() != c.rows {
				t.Errorf("%s rows = %d, want %d\n%s", c.cond, out.Len(), c.rows, out.Format(0))
			}
		})
	}
}

func TestTopN(t *testing.T) {
	spec := parseSpec(t, `
topwords:
  type: topn
  groupby: [date]
  orderby_column: [count DESC]
  limit: 2
`)
	in := mkTable(t, "date,word,count",
		[]any{"d1", "a", 5}, []any{"d1", "b", 9}, []any{"d1", "c", 7},
		[]any{"d2", "a", 1}, []any{"d2", "b", 2})
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("rows = %d, want 4", out.Len())
	}
	if out.Cell(0, "word").Str() != "b" || out.Cell(1, "word").Str() != "c" {
		t.Errorf("d1 top2 wrong:\n%s", out.Format(0))
	}
}

func TestMapDateOperator(t *testing.T) {
	spec := parseSpec(t, `
norm_ipldate:
  type: map
  operator: date
  transform: postedTime
  input_format: 'E MMM dd HH:mm:ss Z yyyy'
  output_format: yyyy-MM-dd
  output: date
`)
	in := mkTable(t, "postedTime,body",
		[]any{"Fri May 10 18:30:00 +0000 2013", "tweet1"},
		[]any{"garbage", "tweet2"})
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Schema().String(); got != "[postedTime, body, date]" {
		t.Fatalf("schema = %s", got)
	}
	if out.Cell(0, "date").Str() != "2013-05-10" {
		t.Errorf("date = %q", out.Cell(0, "date").Str())
	}
	if !out.Cell(1, "date").IsNull() {
		t.Errorf("malformed date should be null, got %v", out.Cell(1, "date"))
	}
}

func TestJavaToGoLayout(t *testing.T) {
	cases := map[string]string{
		"yyyy-MM-dd":               "2006-01-02",
		"E MMM dd HH:mm:ss Z yyyy": "Mon Jan 02 15:04:05 -0700 2006",
		"dd/MM/yy hh:mm a":         "02/01/06 03:04 PM",
	}
	for java, want := range cases {
		if got := javaToGoLayout(java); got != want {
			t.Errorf("javaToGoLayout(%q) = %q, want %q", java, got, want)
		}
	}
}

func TestMapExtractOperator(t *testing.T) {
	spec := parseSpec(t, `
extract_players:
  type: map
  operator: extract
  transform: body
  dict: players.txt
  output: player
`)
	env := &Env{Resources: map[string][]byte{
		"players.txt": []byte("kohli => Virat Kohli\nvirat => Virat Kohli\ndhoni,MS Dhoni\n"),
	}}
	in := mkTable(t, "body,n",
		[]any{"what a shot by Kohli and Virat again!", 1},
		[]any{"dhoni finishes in style", 2},
		[]any{"no players here", 3})
	out, err := spec.Exec(env, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Row 1: kohli+virat both map to Virat Kohli, deduped to one row.
	// Row 3 mentions no player and is dropped.
	if out.Len() != 2 {
		t.Fatalf("rows = %d, want 2\n%s", out.Len(), out.Format(0))
	}
	if out.Cell(0, "player").Str() != "Virat Kohli" || out.Cell(1, "player").Str() != "MS Dhoni" {
		t.Errorf("extract wrong:\n%s", out.Format(0))
	}
}

func TestMapExtractMissingDict(t *testing.T) {
	spec := parseSpec(t, `
e:
  type: map
  operator: extract
  transform: body
  dict: nope.txt
  output: player
`)
	in := mkTable(t, "body", []any{"x"})
	if _, err := spec.Exec(&Env{}, []*table.Table{in}, nil); err == nil || !strings.Contains(err.Error(), "nope.txt") {
		t.Fatalf("expected missing-dict error, got %v", err)
	}
}

func TestMapExtractWords(t *testing.T) {
	spec := parseSpec(t, `
extract_words:
  type: map
  operator: extract_words
  transform: body
  output: word
`)
	in := mkTable(t, "body", []any{"The Chennai crowd is AMAZING tonight http://t.co/x"})
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	words := map[string]bool{}
	for i := 0; i < out.Len(); i++ {
		words[out.Cell(i, "word").Str()] = true
	}
	for _, want := range []string{"chennai", "crowd", "amazing", "tonight"} {
		if !words[want] {
			t.Errorf("missing word %q in %v", want, words)
		}
	}
	if words["the"] || words["is"] {
		t.Errorf("stopwords leaked: %v", words)
	}
	for w := range words {
		if strings.HasPrefix(w, "http") {
			t.Errorf("URL token leaked: %q", w)
		}
	}
}

func TestMapExtractLocation(t *testing.T) {
	spec := parseSpec(t, `
extract_location:
  type: map
  operator: extract_location
  transform: displayName
  match: city
  country: IND
  dict: cities.ind.csv
  output: state
`)
	env := &Env{Resources: map[string][]byte{
		"cities.ind.csv": []byte("mumbai,Maharashtra\npune,Maharashtra\nchennai,Tamil Nadu\n"),
	}}
	in := mkTable(t, "displayName",
		[]any{"Mumbai, India"}, []any{"somewhere else"}, []any{"Chennai Super Fan"})
	out, err := spec.Exec(env, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("rows = %d, want 2", out.Len())
	}
	if out.Cell(0, "state").Str() != "Maharashtra" || out.Cell(1, "state").Str() != "Tamil Nadu" {
		t.Errorf("locations wrong:\n%s", out.Format(0))
	}
}

func TestMapExprOperator(t *testing.T) {
	spec := parseSpec(t, `
weight:
  type: map
  operator: expr
  expression: checkins * 2 + bugs
  output: total_wt
`)
	in := mkTable(t, "checkins,bugs", []any{10, 3})
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cell(0, "total_wt").Int() != 23 {
		t.Errorf("total_wt = %v", out.Cell(0, "total_wt"))
	}
}

func TestMapOverwritesExistingColumn(t *testing.T) {
	spec := parseSpec(t, `
up:
  type: map
  operator: upper
  transform: name
`)
	in := mkTable(t, "name,x", []any{"pig", 1})
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema().Len() != 2 {
		t.Fatalf("schema grew: %s", out.Schema())
	}
	if out.Cell(0, "name").Str() != "PIG" {
		t.Errorf("name = %q", out.Cell(0, "name").Str())
	}
}

// TestParallelComposite: a parallel has no spec of its own; the registry
// expands it into the plain tasks it applies in turn, which the resolver
// puts into the chain (enginetest's TestParallelDifferential runs them).
func TestParallelComposite(t *testing.T) {
	src := `
T:
  players_pipeline:
    parallel: [T.norm_date, T.extract_players]
  norm_date:
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
`
	f, err := flowfile.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	parsed, expand, failed := NewRegistry().Parse(f)
	if err := failed["players_pipeline"]; err != nil {
		t.Fatal(err)
	}
	if sp, ok := parsed["players_pipeline"]; ok {
		t.Errorf("a parallel parsed to the spec %s", Describe(sp))
	}
	if got := expand["players_pipeline"]; !slices.Equal(got, []string{"norm_date", "extract_players"}) {
		t.Errorf("players_pipeline expands to %v", got)
	}
	if parsed["norm_date"] == nil || parsed["extract_players"] == nil || len(expand) != 1 {
		t.Errorf("the subs parse as plain tasks: %v, expansions %v", parsed, expand)
	}
}

func TestParallelCycleDetection(t *testing.T) {
	src := `
T:
  a:
    parallel: [T.b]
  b:
    parallel: [T.a]
`
	f, err := flowfile.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, failed := NewRegistry().Parse(f); failed["a"] == nil || !strings.Contains(failed["a"].Error(), "cycle") {
		err := failed["a"]
		t.Fatalf("expected cycle error, got %v", err)
	}
}

func TestProjectSortDistinctUnionLimit(t *testing.T) {
	in := mkTable(t, "a,b,c",
		[]any{2, "x", true}, []any{1, "y", false}, []any{2, "x", true})

	proj := parseSpec(t, "p:\n  type: project\n  columns: [b, a]\n")
	out, err := proj.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema().String() != "[b, a]" {
		t.Errorf("project schema = %s", out.Schema())
	}

	srt := parseSpec(t, "s:\n  type: sort\n  orderby_column: [a ASC, b DESC]\n")
	out, err = srt.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cell(0, "a").Int() != 1 {
		t.Errorf("sort wrong:\n%s", out.Format(0))
	}

	dst := parseSpec(t, "d:\n  type: distinct\n")
	out, err = dst.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("distinct rows = %d, want 2", out.Len())
	}

	uni := parseSpec(t, "u:\n  type: union\n")
	out, err = uni.Exec(&Env{}, []*table.Table{in, in}, []string{"t1", "t2"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 6 {
		t.Errorf("union rows = %d, want 6", out.Len())
	}

	lim := parseSpec(t, "l:\n  type: limit\n  limit: 2\n")
	out, err = lim.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("limit rows = %d", out.Len())
	}
}

func TestUnionSchemaMismatch(t *testing.T) {
	uni := parseSpec(t, "u:\n  type: union\n")
	a := mkTable(t, "a,b", []any{1, 2})
	b := mkTable(t, "a,c", []any{1, 2})
	if _, err := uni.Exec(&Env{}, []*table.Table{a, b}, []string{"a", "b"}); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

func TestUserDefinedTask(t *testing.T) {
	reg := NewRegistry()
	// The hackathon's ticket-resolution predictor (observation 2): a
	// user task that scores rows by keyword.
	err := reg.RegisterFunc("predict_resolution", func(c *flowfile.Node) (*FuncSpec, error) {
		col := c.Str("text_column")
		if col == "" {
			return nil, fmt.Errorf("predict_resolution: need text_column")
		}
		return &FuncSpec{
			OutFn: func(in []Input) (*schema.Schema, error) {
				one, err := singleInput("predict_resolution", in)
				if err != nil {
					return nil, err
				}
				if _, err := one.Schema.Require(col); err != nil {
					return nil, err
				}
				return one.Schema.Extend("predicted_days")
			},
			ExecFn: func(env *Env, in []*table.Table, names []string) (*table.Table, error) {
				src := in[0]
				out := table.New(src.Schema().ExtendOrSame("predicted_days"))
				idx := src.Schema().Index(col)
				for _, r := range src.Rows() {
					days := int64(7)
					if strings.Contains(strings.ToLower(r[idx].Str()), "urgent") {
						days = 1
					}
					nr := append(r.Clone(), value.NewInt(days))
					out.Append(nr)
				}
				return out, nil
			},
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The flow file references it exactly like a platform task.
	src := `
T:
  predictor:
    type: predict_resolution
    text_column: summary
`
	f, err := flowfile.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	parsed, _, failed := reg.Parse(f)
	spec, err := parsed["predictor"], failed["predictor"]
	if err != nil {
		t.Fatal(err)
	}
	in := mkTable(t, "ticket,summary", []any{1, "URGENT outage"}, []any{2, "slow UI"})
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cell(0, "predicted_days").Int() != 1 || out.Cell(1, "predicted_days").Int() != 7 {
		t.Errorf("prediction wrong:\n%s", out.Format(0))
	}
}

func TestRegistryProtectsBuiltins(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("groupby", nil); err == nil {
		t.Fatal("expected error replacing platform task")
	}
	if err := RegisterAggregate("sum", nil); err == nil {
		t.Fatal("expected error replacing platform aggregate")
	}
	if err := RegisterOperator("date", nil); err == nil {
		t.Fatal("expected error replacing platform operator")
	}
}

// TestParallelIsBuiltin: parallel is a platform task type like the
// others: Types lists it, and registering over it is rejected.
func TestParallelIsBuiltin(t *testing.T) {
	reg := NewRegistry()
	if !slices.Contains(reg.Types(), "parallel") {
		t.Errorf("Types() = %v, want parallel listed", reg.Types())
	}
	p := func(*flowfile.Node) (Spec, error) { return nil, nil }
	if err := reg.Register("parallel", p); err == nil || err.Error() != `task: cannot replace platform task type "parallel"` {
		t.Errorf("Register(parallel) = %v, want the platform-type error", err)
	}
}

func TestOrderByAggregates(t *testing.T) {
	spec := parseSpec(t, `
aggregate_by_word:
  type: groupby
  groupby: [word]
  aggregates:
    - operator: sum
      apply_on: count
      out_field: count
      orderby_aggregates: true
`)
	in := mkTable(t, "word,count", []any{"low", 1}, []any{"high", 10}, []any{"mid", 5})
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cell(0, "word").Str() != "high" || out.Cell(2, "word").Str() != "low" {
		t.Errorf("orderby_aggregates wrong:\n%s", out.Format(0))
	}
}

// TestSortAndLimitLeaveInputUntouched: the sort and the limit hand on
// selections of their input's batch, so the input — a source snapshot, a
// cache entry, a fan-out node's table — keeps its row order, its cells
// and (column-backed) its vectors, in both backings. A column-backed
// limit builds no row.
func TestSortAndLimitLeaveInputUntouched(t *testing.T) {
	rows := mkTable(t, "k,v", []any{"b", 2}, []any{"c", 3}, []any{"a", 1}, []any{"c", 0})
	b := colstore.NewBuilder(rows.Schema())
	for _, r := range rows.Rows() {
		b.Append(r)
	}
	sortSpec := parseSpec(t, "s:\n  type: sort\n  orderby_column: [k DESC, v]\n")
	limitSpec := parseSpec(t, "l:\n  type: limit\n  limit: 2\n")
	for name, in := range map[string]*table.Table{"row-backed": rows, "column-backed": b.Table()} {
		before := table.New(in.Schema())
		for _, r := range in.Rows() {
			before.Append(r.Clone())
		}
		fp, cols := in.Fingerprint(), in.Columns()
		sorted, err := sortSpec.Exec(&Env{}, []*table.Table{in}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := mkTable(t, "k,v", []any{"c", 0}, []any{"c", 3}, []any{"b", 2}, []any{"a", 1}); !sorted.Equal(want) {
			t.Errorf("%s: sorted:\n%s", name, sorted.Format(0))
		}
		head, err := limitSpec.Exec(&Env{}, []*table.Table{in}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := mkTable(t, "k,v", []any{"b", 2}, []any{"c", 3}); !head.Equal(want) {
			t.Errorf("%s: limited:\n%s", name, head.Format(0))
		}
		if in.Columns() != cols || in.Fingerprint() != fp || !in.Equal(before) {
			t.Errorf("%s: sort or limit changed its input:\n%s", name, in.Format(0))
		}
		for i, r := range in.Rows() {
			for j := range r {
				if r[j] != before.At(i, j) {
					t.Errorf("%s: input cell (%d,%d) changed", name, i, j)
				}
			}
		}
	}
	// Limit on a column-backed table must not build the whole row view.
	// TotalAlloc is process-wide, so the least of five runs is the one
	// least charged with other goroutines' allocations.
	big := colstore.NewBuilder(rows.Schema())
	for i := 0; i < 10000; i++ {
		big.Append(table.Row{value.NewString("k"), value.NewInt(int64(i))})
	}
	in := big.Table()
	least := uint64(math.MaxUint64)
	for range 5 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		head, err := parseSpec(t, "l:\n  type: limit\n  limit: 3\n").Exec(&Env{}, []*table.Table{in}, nil)
		runtime.ReadMemStats(&m1)
		if err != nil || head.Len() != 3 {
			t.Fatalf("limit 3 of a 10,000-row column-backed table: err %v", err)
		}
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	if least > 16<<10 {
		t.Errorf("limit 3 of a 10,000-row column-backed table: %d bytes allocated", least)
	}
}

func TestMedianAggregate(t *testing.T) {
	spec := parseSpec(t, `
m:
  type: groupby
  groupby: [k]
  aggregates:
    - operator: median
      apply_on: v
      out_field: med
    - operator: stddev
      apply_on: v
      out_field: sd
`)
	in := mkTable(t, "k,v",
		[]any{"a", 1}, []any{"a", 9}, []any{"a", 5},
		[]any{"b", 2}, []any{"b", 4})
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cell(0, "med").Float() != 5 || out.Cell(1, "med").Float() != 3 {
		t.Errorf("medians wrong:\n%s", out.Format(0))
	}
	// Population standard deviation: sqrt(32/3) for {1, 9, 5}, 1 for {2, 4}.
	if d := out.Cell(0, "sd").Float() - math.Sqrt(32.0/3); d > 1e-9 || d < -1e-9 || out.Cell(1, "sd").Float() != 1 {
		t.Errorf("stddevs wrong:\n%s", out.Format(0))
	}
}

func TestBucketOperator(t *testing.T) {
	spec := parseSpec(t, `
b:
  type: map
  operator: bucket
  transform: hour
  width: 2
  output: slot
`)
	in := mkTable(t, "hour", []any{0.5}, []any{1.9}, []any{2.0}, []any{5.7}, []any{nil})
	out, err := spec.Exec(&Env{}, []*table.Table{in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 0, 2, 4}
	for i, w := range want {
		if got := out.Cell(i, "slot").Int(); got != w {
			t.Errorf("row %d slot = %d, want %d", i, got, w)
		}
	}
	if !out.Cell(4, "slot").IsNull() {
		t.Error("null input should bucket to null")
	}
	if _, err := parseSpec2("b:\n  type: map\n  operator: bucket\n  transform: h\n  width: 0\n"); err == nil {
		t.Error("zero width should fail")
	}
}

// parseSpec2 is parseSpec returning the error instead of failing.
func parseSpec2(src string) (Spec, error) {
	f, err := flowfile.Parse("test", "T:\n"+indent(src, 2))
	if err != nil {
		return nil, err
	}
	parsed, _, failed := NewRegistry().Parse(f)
	return parsed[f.TaskOrder[0]], failed[f.TaskOrder[0]]
}

// TestExecBindsOnce: a kernel-backed Exec runs the group Bind keeps for
// its spec and input shape, so a second Exec of one spec over the same
// shape binds no second group. A filter of both modes keeps its
// expression part, which binds so.
func TestExecBindsOnce(t *testing.T) {
	sales := mkTable(t, "region,amount", []any{"east", 10}, []any{"west", 200}, []any{"east", 5})
	regions := mkTable(t, "region,zone", []any{"east", "e"})
	for _, tc := range []struct {
		src   string
		in    []*table.Table
		names []string
	}{
		{"g:\n  type: groupby\n  groupby: [region]\n  aggregates:\n    - operator: sum\n      apply_on: amount\n      out_field: total\n", []*table.Table{sales}, nil},
		{"s:\n  type: sort\n  orderby_column: [amount DESC]\n", []*table.Table{sales}, nil},
		{"f:\n  type: filter_by\n  filter_expression: amount > 7\n", []*table.Table{sales}, nil},
		{"m:\n  type: map\n  operator: expr\n  expression: amount * 2\n  output: double\n", []*table.Table{sales}, nil},
		{"j:\n  type: join\n  left: sales by region\n  right: regions by region\n  join_condition: inner\n", []*table.Table{sales, regions}, []string{"sales", "regions"}},
		{"l:\n  type: limit\n  limit: 2\n", []*table.Table{sales}, nil},
		{"t:\n  type: topn\n  orderby_column: [amount]\n  limit: 2\n", []*table.Table{sales}, nil},
		{"b:\n  type: filter_by\n  filter_expression: amount > 7\n  filter_by: [region]\n  filter_source: W.picker\n", []*table.Table{sales}, nil},
	} {
		spec := parseSpec(t, tc.src)
		for range 2 {
			if _, err := spec.Exec(&Env{}, tc.in, tc.names); err != nil {
				t.Fatal(err)
			}
		}
		m := spec.(memoized).derived()
		if f, ok := spec.(*FilterSpec); ok && f.exprOnly != nil {
			m = f.exprOnly.derived()
		}
		groups := 0
		for b := m.bound.Load(); b != nil; b = b.next {
			groups++
		}
		if groups != 1 {
			t.Errorf("%s: two Execs over one shape bound %d groups, want 1", spec.Type(), groups)
		}
	}
}

// TestParallelExpandsNested: a nested parallel's tasks take its place
// in the expansion, and a sub that is not row-local is refused.
func TestParallelExpandsNested(t *testing.T) {
	f, err := flowfile.Parse("t", `
T:
  outer:
    parallel: [T.inner, T.big]
  inner:
    parallel: [T.double]
  double:
    type: map
    operator: expr
    expression: amount * 2
    output: doubled
  big:
    type: filter_by
    filter_expression: doubled > 15
  bad:
    parallel: [T.total]
  total:
    type: groupby
    groupby: [region]
`)
	if err != nil {
		t.Fatal(err)
	}
	_, expand, failed := NewRegistry().Parse(f)
	if err := failed["bad"]; err == nil || !strings.Contains(err.Error(), "is not row-local") {
		t.Errorf("a parallel over a groupby parses with %v", err)
	}
	if got := expand["outer"]; !slices.Equal(got, []string{"double", "big"}) {
		t.Errorf("outer expands to %v, want [double big]", got)
	}
	if got := expand["inner"]; !slices.Equal(got, []string{"double"}) {
		t.Errorf("inner expands to %v, want [double]", got)
	}
}
