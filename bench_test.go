package shareinsights

// The benchmark harness regenerates every data figure and quantified
// claim of the paper's evaluation (see DESIGN.md §4 for the experiment
// index and EXPERIMENTS.md for paper-vs-measured records):
//
//	BenchmarkFigure31PlatformUsage      Figure 31 — operator/widget popularity
//	BenchmarkFigure32PracticeVsSuccess  Figure 32 — practice vs competition runs
//	BenchmarkFigure35ForkSizes          Figure 35 — fork-to-go flow-file sizes
//	BenchmarkEffortFlowfileVsBaseline   E4 — headline weeks→hours claim proxy
//	BenchmarkApachePipeline/IPLPipeline E5 — §3 use cases end to end
//	BenchmarkOptimizerTransferAblation  E6 — §4.1 transfer minimization
//	BenchmarkAdhocQuery                 E7 — §4.4 path query
//	BenchmarkSharedVsInlineProcessing   E8 — §4.5.3 flow-file-group speedup
//	BenchmarkVCSRevertCycle             E9 — observation-7 debugging loop
//
// plus per-operator micro-benchmarks for the engine substrates.

import (
	"fmt"
	"strings"
	"testing"

	"shareinsights/internal/baseline"
	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/engine/cube"
	"shareinsights/internal/experiments"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/gen"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
	"shareinsights/internal/vcs"
)

// ---------------------------------------------------------------------
// Figures 31/32/35 — the hackathon telemetry dashboards

func BenchmarkFigure31PlatformUsage(b *testing.B) {
	var tel *experiments.Telemetry
	var err error
	for i := 0; i < b.N; i++ {
		tel, err = experiments.RunTelemetry(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tel.OperatorUsage.Len()), "operators")
	b.ReportMetric(tel.OperatorUsage.Cell(0, "count").Float(), "top_operator_uses")
	if b.N == 1 {
		b.Logf("Figure 31 — operator usage:\n%s", tel.OperatorUsage.Format(0))
		b.Logf("Figure 31 — widget usage:\n%s", tel.WidgetUsage.Format(0))
	}
}

func BenchmarkFigure32PracticeVsSuccess(b *testing.B) {
	var tel *experiments.Telemetry
	var err error
	for i := 0; i < b.N; i++ {
		tel, err = experiments.RunTelemetry(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tel.PracticeCorrelation(), "pearson_r")
	b.ReportMetric(100*tel.WinnersPracticePercentile(), "winners_practice_pctile")
	if b.N == 1 {
		b.Logf("Figure 32 — practice vs competition runs:\n%s", tel.PracticeVsRuns.Format(0))
		b.Logf("finalists %v, winners %v", tel.Sim.FinalistIDs(), tel.Sim.WinnerIDs())
	}
}

func BenchmarkFigure35ForkSizes(b *testing.B) {
	var tel *experiments.Telemetry
	var err error
	for i := 0; i < b.N; i++ {
		tel, err = experiments.RunTelemetry(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	minSize, maxSize := 1<<30, 0
	for i := 0; i < tel.ForkSizes.Len(); i++ {
		s := int(tel.ForkSizes.Cell(i, "fork_size_bytes").Int())
		if s < minSize {
			minSize = s
		}
		if s > maxSize {
			maxSize = s
		}
	}
	b.ReportMetric(float64(minSize), "min_bytes")
	b.ReportMetric(float64(maxSize), "max_bytes")
	if b.N == 1 {
		b.Logf("Figure 35 — fork sizes:\n%s", tel.ForkSizes.Format(0))
	}
}

// ---------------------------------------------------------------------
// E4 — the headline claim

func BenchmarkEffortFlowfileVsBaseline(b *testing.B) {
	var e *experiments.EffortResult
	var err error
	for i := 0; i < b.N; i++ {
		e, err = experiments.RunEffort(experiments.DefaultSeed, 20000)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !e.OutputsMatch {
		b.Fatal("outputs diverged")
	}
	b.ReportMetric(float64(e.FlowFile.Lines), "flowfile_lines")
	b.ReportMetric(float64(e.Baseline.Lines), "baseline_lines")
	b.ReportMetric(float64(e.Baseline.Tokens)/float64(e.FlowFile.Tokens), "token_ratio")
	if b.N == 1 {
		b.Logf("E4: %s", e)
	}
}

// ---------------------------------------------------------------------
// E5 — the §3 use-case pipelines end to end

func benchPipeline(b *testing.B, name, flow string, mem map[string][]byte, resources map[string][]byte, endpoint string) {
	f, err := flowfile.Parse(name, flow)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := dashboard.NewPlatform()
		p.Connectors = connector.NewRegistry(connector.Options{Mem: mem})
		d, err := p.Compile(f, resources)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Run(); err != nil {
			b.Fatal(err)
		}
		if _, ok := d.Endpoint(endpoint); !ok {
			b.Fatalf("endpoint %s missing", endpoint)
		}
	}
}

const apacheBenchFlow = `
D:
  svn_jira_summary: [project, year, noOfBugs, noOfCheckins,
    noOfEmailsTotal, noOfContributors, noOfReleases]
  project_meta: [project, technology]

D.svn_jira_summary:
  source: mem:svn.csv
  format: csv

D.project_meta:
  source: mem:meta.csv
  format: csv

F:
  D.activity: D.svn_jira_summary | T.weight
  +D.bubbles: (D.activity, D.project_meta) | T.join_meta | T.agg

T:
  weight:
    type: map
    operator: expr
    expression: noOfCheckins * 2 + noOfBugs + noOfContributors * 5 + noOfReleases * 20
    output: total_wt
  join_meta:
    type: join
    left: activity by project
    right: project_meta by project
    join_condition: inner
    project:
      activity_project: project
      activity_total_wt: total_wt
      project_meta_technology: technology
  agg:
    type: groupby
    groupby: [project, technology]
    aggregates:
      - operator: sum
        apply_on: total_wt
        out_field: total_wt
`

func BenchmarkApachePipeline(b *testing.B) {
	benchPipeline(b, "apache", apacheBenchFlow, map[string][]byte{
		"svn.csv":  gen.SvnJiraSummaryCSV(gen.ApacheOptions{Seed: 7}),
		"meta.csv": gen.ProjectMetaCSV(),
	}, nil, "bubbles")
}

func BenchmarkIPLPipeline(b *testing.B) {
	benchPipeline(b, "ipl", experiments.IPLProcessingFlow, map[string][]byte{
		"tweets.csv": gen.TweetsCSV(gen.TweetsOptions{Seed: 11, N: 20000}),
	}, map[string][]byte{"players.txt": gen.PlayersDict()}, "players_tweets")
}

// ---------------------------------------------------------------------
// E6 / E7 / E8 / E9

func BenchmarkOptimizerTransferAblation(b *testing.B) {
	var a *experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		a, err = experiments.RunAblation(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.OptimizedBytes), "optimized_bytes")
	b.ReportMetric(float64(a.RawBytes), "raw_bytes")
	b.ReportMetric(float64(a.RawBytes)/float64(a.OptimizedBytes), "transfer_reduction_x")
	if b.N == 1 {
		b.Logf("E6: %s", a)
	}
}

func BenchmarkAdhocQuery(b *testing.B) {
	p := dashboard.NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"tweets.csv": gen.TweetsCSV(gen.TweetsOptions{Seed: 11, N: 20000})},
	})
	f, err := flowfile.Parse("ipl", experiments.IPLProcessingFlow)
	if err != nil {
		b.Fatal(err)
	}
	d, err := p.Compile(f, map[string][]byte{"players.txt": gen.PlayersDict()})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := d.AdhocQuery("players_tweets", "player", "sum", "count")
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() == 0 {
			b.Fatal("empty ad-hoc result")
		}
	}
}

func BenchmarkSharedVsInlineProcessing(b *testing.B) {
	var s *experiments.SharedResult
	var err error
	for i := 0; i < b.N; i++ {
		s, err = experiments.RunShared(experiments.DefaultSeed, 20000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.ConsumptionTime.Microseconds()), "shared_us")
	b.ReportMetric(float64(s.InlineTime.Microseconds()), "inline_us")
	b.ReportMetric(float64(s.InlineTime)/float64(s.ConsumptionTime), "feedback_speedup_x")
	if b.N == 1 {
		b.Logf("E8: %s", s)
	}
}

func BenchmarkVCSRevertCycle(b *testing.B) {
	stable := []byte(experiments.IPLProcessingFlow)
	broken := append(append([]byte{}, stable...), []byte("\nT:\n  extra:\n    type: distinct\n")...)
	for i := 0; i < b.N; i++ {
		r := vcs.NewRepo("team")
		h, err := r.Commit(vcs.DefaultBranch, "team", "stable", stable)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Commit(vcs.DefaultBranch, "team", "experiment", broken); err != nil {
			b.Fatal(err)
		}
		content, err := r.ContentAt(h)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Commit(vcs.DefaultBranch, "team", "revert", content); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks: engine operators

func benchTable(n int) *table.Table {
	t := table.New(schema.MustFromNames("k", "cat", "v"))
	for i := 0; i < n; i++ {
		t.AppendValues(
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("c%d", i%37)),
			value.NewFloat(float64(i%1000)),
		)
	}
	return t
}

func specFromText(b *testing.B, src string) task.Spec {
	b.Helper()
	f, err := flowfile.Parse("bench", "T:\n"+src)
	if err != nil {
		b.Fatal(err)
	}
	parsed, failed := task.NewRegistry().Parse(f)
	spec, err := parsed[f.TaskOrder[0]], failed[f.TaskOrder[0]]
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

func benchSpec(b *testing.B, spec task.Spec, in *table.Table) {
	env := &task.Env{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Exec(env, []*table.Table{in}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(in.SizeBytes()))
}

func BenchmarkTaskFilter(b *testing.B) {
	benchSpec(b, specFromText(b, "  f:\n    type: filter_by\n    filter_expression: v > 500\n"), benchTable(100000))
}

func BenchmarkTaskGroupBy(b *testing.B) {
	benchSpec(b, specFromText(b, `  g:
    type: groupby
    groupby: [cat]
    aggregates:
      - operator: sum
        apply_on: v
        out_field: total
      - operator: avg
        apply_on: v
        out_field: mean
`), benchTable(100000))
}

func BenchmarkTaskTopN(b *testing.B) {
	benchSpec(b, specFromText(b, "  t:\n    type: topn\n    groupby: [cat]\n    orderby_column: [v DESC]\n    limit: 5\n"), benchTable(100000))
}

func BenchmarkTaskMapExpr(b *testing.B) {
	benchSpec(b, specFromText(b, "  m:\n    type: map\n    operator: expr\n    expression: v * 2 + k\n    output: score\n"), benchTable(100000))
}

func BenchmarkTaskJoin(b *testing.B) {
	left := benchTable(50000)
	right := table.New(schema.MustFromNames("cat", "label"))
	for i := 0; i < 37; i++ {
		right.AppendValues(value.NewString(fmt.Sprintf("c%d", i)), value.NewString(fmt.Sprintf("label%d", i)))
	}
	spec := specFromText(b, `  j:
    type: join
    left: l by cat
    right: r by cat
    join_condition: inner
`)
	env := &task.Env{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Exec(env, []*table.Table{left, right}, []string{"l", "r"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCubeFilterUpdate(b *testing.B) {
	t := benchTable(100000)
	c := cube.New(t)
	cat, err := c.Dimension("cat")
	if err != nil {
		b.Fatal(err)
	}
	v, err := c.Dimension("v")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.GroupBy(cat, cube.Sum, "v"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := value.NewFloat(float64(i % 500))
		hi := value.NewFloat(float64(i%500 + 200))
		v.FilterRange(lo, hi)
	}
}

func BenchmarkFlowFileParse(b *testing.B) {
	src := experiments.IPLProcessingFlow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flowfile.Parse("bench", src); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(src)))
}

func BenchmarkSBINEncodeDecode(b *testing.B) {
	t := benchTable(10000)
	payload := connector.EncodeSBIN(t)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := connector.DecodeSBIN(connector.EncodeSBIN(t), t.Schema()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineIPL(b *testing.B) {
	tweets := gen.TweetsCSV(gen.TweetsOptions{Seed: 11, N: 20000})
	dict := gen.PlayersDict()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.IPLPlayerCounts(tweets, dict); err != nil {
			b.Fatal(err)
		}
	}
}

// Sanity test keeping the bench fixtures honest under `go test`.
func TestBenchFixturesParse(t *testing.T) {
	for name, src := range map[string]string{
		"apache": apacheBenchFlow,
		"ipl":    experiments.IPLProcessingFlow,
	} {
		f, err := flowfile.Parse(name, src)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := f.Validate(true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if !strings.Contains(experiments.IPLProcessingFlow, "players_pipeline") {
		t.Error("IPL flow fixture unexpectedly changed")
	}
}
