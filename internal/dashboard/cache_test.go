package dashboard

import (
	"strings"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/flowfile"
)

const cacheFlow = `
D:
  raw: [k, v]

D.raw:
  source: mem:raw.csv
  format: csv

F:
  D.filtered: D.raw | T.keep
  +D.agg: D.filtered | T.sum
  +D.other: D.raw | T.count_k

T:
  keep:
    type: filter_by
    filter_expression: v > 0
  sum:
    type: groupby
    groupby: [k]
    aggregates:
      - operator: sum
        apply_on: v
        out_field: total
  count_k:
    type: groupby
    groupby: [k]
`

func cachePlatform(raw string) *Platform {
	p := NewPlatform()
	p.Cache = NewResultCache()
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"raw.csv": []byte(raw)},
	})
	return p
}

func compileRun(t *testing.T, p *Platform, src string) *Dashboard {
	t.Helper()
	f, err := flowfile.Parse("cached_dash", src)
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
	return d
}

func TestSecondRunFullyCached(t *testing.T) {
	p := cachePlatform("a,1\nb,2\na,-1\n")
	d1 := compileRun(t, p, cacheFlow)
	if d1.Result().Stats.TasksRun == 0 {
		t.Fatal("first run should execute tasks")
	}
	if len(d1.Result().Stats.CacheHits) != 0 {
		t.Fatalf("first run had cache hits: %v", d1.Result().Stats.CacheHits)
	}
	d2 := compileRun(t, p, cacheFlow)
	if d2.Result().Stats.TasksRun != 0 {
		t.Errorf("second run executed %d tasks, want 0", d2.Result().Stats.TasksRun)
	}
	if len(d2.Result().Stats.CacheHits) != 3 {
		t.Errorf("cache hits = %v, want all 3 produced nodes", d2.Result().Stats.CacheHits)
	}
	a1, _ := d1.Endpoint("agg")
	a2, _ := d2.Endpoint("agg")
	if !a1.Equal(a2) {
		t.Error("cached result differs")
	}
}

func TestEditRecomputesOnlyAffectedSubtree(t *testing.T) {
	p := cachePlatform("a,1\nb,2\na,-1\n")
	compileRun(t, p, cacheFlow)
	// Edit only the sum task: filtered and other stay cached; agg
	// recomputes.
	edited := strings.Replace(cacheFlow, "out_field: total", "out_field: grand_total", 1)
	d := compileRun(t, p, edited)
	hits := map[string]bool{}
	for _, h := range d.Result().Stats.CacheHits {
		hits[h] = true
	}
	if !hits["filtered"] || !hits["other"] {
		t.Errorf("unaffected nodes not cached: hits=%v", d.Result().Stats.CacheHits)
	}
	if hits["agg"] {
		t.Error("edited node served from cache")
	}
	agg, _ := d.Endpoint("agg")
	if !agg.Schema().Has("grand_total") {
		t.Errorf("edit not applied: %s", agg.Schema())
	}
}

func TestSourceChangeInvalidatesEverything(t *testing.T) {
	p := cachePlatform("a,1\n")
	compileRun(t, p, cacheFlow)
	// Same flow file, new payload.
	p.Connectors = connector.NewRegistry(connector.Options{
		Mem: map[string][]byte{"raw.csv": []byte("a,1\nz,9\n")},
	})
	d := compileRun(t, p, cacheFlow)
	if len(d.Result().Stats.CacheHits) != 0 {
		t.Errorf("stale cache served after source change: %v", d.Result().Stats.CacheHits)
	}
	agg, _ := d.Endpoint("agg")
	if agg.Len() != 2 {
		t.Errorf("new data not reflected:\n%s", agg.Format(0))
	}
}

func TestUpstreamEditCascades(t *testing.T) {
	p := cachePlatform("a,1\nb,2\na,-1\n")
	compileRun(t, p, cacheFlow)
	// Editing the filter must also invalidate agg (downstream), while
	// the independent branch stays cached.
	edited := strings.Replace(cacheFlow, "filter_expression: v > 0", "filter_expression: v > 1", 1)
	d := compileRun(t, p, edited)
	hits := map[string]bool{}
	for _, h := range d.Result().Stats.CacheHits {
		hits[h] = true
	}
	if hits["filtered"] || hits["agg"] {
		t.Errorf("edited subtree served from cache: %v", d.Result().Stats.CacheHits)
	}
	if !hits["other"] {
		t.Errorf("independent branch should stay cached: %v", d.Result().Stats.CacheHits)
	}
	agg, _ := d.Endpoint("agg")
	if agg.Len() != 1 { // only b,2 passes v > 1
		t.Errorf("cascaded recompute wrong:\n%s", agg.Format(0))
	}
}

// TestFreshCacheServesNothing: entries are keyed by content signature, so
// nothing ever needs dropping from a cache; starting over is installing
// a new one.
func TestFreshCacheServesNothing(t *testing.T) {
	p := cachePlatform("a,1\n")
	compileRun(t, p, cacheFlow)
	if p.Cache.Len() == 0 {
		t.Fatal("cache empty after run")
	}
	p.Cache = NewResultCache()
	d := compileRun(t, p, cacheFlow)
	if len(d.Result().Stats.CacheHits) != 0 {
		t.Error("fresh cache still served")
	}
}

func TestCacheBound(t *testing.T) {
	c := NewResultCache()
	c.MaxEntries = 4
	for i := 0; i < 10; i++ {
		c.store("d", strings.Repeat("n", i+1), "sig", nil)
	}
	if c.Len() > 4 {
		t.Errorf("cache exceeded bound: %d", c.Len())
	}
}
