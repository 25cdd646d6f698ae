package shareinsights

// Ablation benchmarks for the design decisions DESIGN.md §5 calls out:
// engine parallelism, row-local fusion, filter pushdown, the incremental
// result cache and the cube interaction path (the last lives in
// internal/dashboard as BenchmarkInteraction{Cube,Reference}).

import (
	"context"
	"fmt"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/gen"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

func mustSchema(names ...string) *schema.Schema { return schema.MustFromNames(names...) }
func strVal(s string) value.V                   { return value.NewString(s) }

// ablSpecs builds the fan-out chain used by the fusion and pushdown
// ablations: extract_words fans each doc into many word rows, then a
// filter trims them.
func ablSpecs(b *testing.B) []task.Spec {
	b.Helper()
	src := `
T:
  split:
    type: map
    operator: extract_words
    transform: body
    output: word
  trim:
    type: filter_by
    filter_expression: word contains 'a'
`
	f, err := flowfile.Parse("abl", src)
	if err != nil {
		b.Fatal(err)
	}
	reg := task.NewRegistry()
	var specs []task.Spec
	for _, name := range []string{"split", "trim"} {
		parsed, failed := reg.Parse(f)
		sp, err := parsed[name], failed[name]
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, sp)
	}
	return specs
}

func ablDocs(n int) *table.Table {
	t := table.New(mustSchema("body"))
	for i := 0; i < n; i++ {
		t.AppendValues(strVal(fmt.Sprintf("alpha beta gamma delta epsilon doc%d tail words here", i)))
	}
	return t
}

// BenchmarkAblationWorkers1 / 8: intra-node parallelism on a fused
// row-local chain (DESIGN.md decision: shard row-local runs). On a
// single-CPU machine this measures pure coordination overhead — the
// interesting number needs real cores (see EXPERIMENTS.md hardware
// note).
func BenchmarkAblationWorkers1(b *testing.B) { benchWorkers(b, 1) }
func BenchmarkAblationWorkers8(b *testing.B) { benchWorkers(b, 8) }

func benchWorkers(b *testing.B, workers int) {
	specs := ablSpecs(b)
	docs := ablDocs(20000)
	e := &batch.Executor{Parallelism: workers}
	env := &task.Env{Parallelism: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.RunPipeline(context.Background(), env, specs, []*table.Table{docs}, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFused vs Staged: the fused engine path versus
// materializing after every stage (the reference Exec), single-threaded
// so only fusion differs.
func BenchmarkAblationFused(b *testing.B) {
	specs := ablSpecs(b)
	docs := ablDocs(20000)
	e := &batch.Executor{Parallelism: 1}
	env := &task.Env{Parallelism: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.RunPipeline(context.Background(), env, specs, []*table.Table{docs}, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStaged(b *testing.B) {
	specs := ablSpecs(b)
	docs := ablDocs(20000)
	env := &task.Env{Parallelism: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := docs
		for _, sp := range specs {
			out, err := sp.Exec(env, []*table.Table{cur}, nil)
			if err != nil {
				b.Fatal(err)
			}
			cur = out
		}
	}
}

// BenchmarkAblationPushdownOn / Off: a selective filter written after a
// fan-out map; the optimizer hoists it ahead.
func BenchmarkAblationPushdownOn(b *testing.B)  { benchPushdown(b, true) }
func BenchmarkAblationPushdownOff(b *testing.B) { benchPushdown(b, false) }

func benchPushdown(b *testing.B, optimize bool) {
	// As written: fan out every doc, then filter on a pre-existing
	// column. The optimizer's plan hoists the filter ahead of the map.
	src := `
D:
  docs: [body]

F:
  +D.words: D.docs | T.split | T.docfilter

T:
  split:
    type: map
    operator: extract_words
    transform: body
    output: word
  docfilter:
    type: filter_by
    filter_expression: body contains 'doc7'
`
	f, err := flowfile.Parse("push", src)
	if err != nil {
		b.Fatal(err)
	}
	g, err := dag.Build(f, task.NewRegistry(), nil)
	if err != nil {
		b.Fatal(err)
	}
	sources := map[string]*table.Table{"docs": ablDocs(20000)}
	e := &batch.Executor{Parallelism: 1, Optimize: optimize}
	env := &task.Env{Parallelism: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunContext(context.Background(), g, env, sources); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCacheCold / Warm: re-running an unchanged dashboard
// with the incremental result cache.
func BenchmarkAblationCacheCold(b *testing.B) { benchCache(b, false) }
func BenchmarkAblationCacheWarm(b *testing.B) { benchCache(b, true) }

func benchCache(b *testing.B, warm bool) {
	flow := `
D:
  tweets: [postedTime, body, location]

D.tweets:
  source: mem:tweets.csv
  format: csv

F:
  +D.counts: D.tweets | T.pipeline | T.count

T:
  pipeline:
    parallel: [T.norm, T.extract]
  norm:
    type: map
    operator: date
    transform: postedTime
    input_format: 'E MMM dd HH:mm:ss Z yyyy'
    output_format: yyyy-MM-dd
    output: date
  extract:
    type: map
    operator: extract
    transform: body
    dict: players.txt
    output: player
  count:
    type: groupby
    groupby: [date, player]
`
	p := dashboard.NewPlatform()
	p.Cache = dashboard.NewResultCache()
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"tweets.csv": gen.TweetsCSV(gen.TweetsOptions{Seed: 13, N: 10000})},
	})
	resources := map[string][]byte{"players.txt": gen.PlayersDict()}
	f, err := flowfile.Parse("cachebench", flow)
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		d, err := p.Compile(f, resources)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Run(); err != nil {
			b.Fatal(err)
		}
	}
	if warm {
		run()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			p.Cache = dashboard.NewResultCache() // stay cold
		}
		run()
	}
}
