package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"shareinsights/internal/dashboard"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/store"
)

// slotProgram is the program the dashboard's slot holds (nil before one
// is compiled).
func slotProgram(s *Server, name string) *dashboard.Program {
	e := s.lookup(name).e
	e.flowMu.Lock()
	defer e.flowMu.Unlock()
	return e.slot.prog
}

// explainText is GET …/explain's plan text.
func explainText(t *testing.T, url string) string {
	t.Helper()
	code, body := do(t, http.MethodGet, url+"/explain", "")
	if code != 200 {
		t.Fatalf("explain = %d: %s", code, body)
	}
	var resp struct{ Text string }
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Text
}

// TestExplainFollowsTip: explain plans the program at main's tip, so a
// save shows at once — not the plan of the dashboard the last run
// compiled from the previous tip.
func TestExplainFollowsTip(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/dashboards/tipplan"
	putAndRun(t, ts, "tipplan", serverFlow)
	if text := explainText(t, base); strings.Contains(text, "filter_by") {
		t.Fatalf("plan before the edit already filters:\n%s", text)
	}
	edited := strings.Replace(serverFlow, "D.sales | T.sum_by_region", "D.sales | T.big | T.sum_by_region", 1) + `
  big:
    type: filter_by
    filter_expression: amount > 7
`
	if code, body := do(t, http.MethodPut, base, edited); code != 200 {
		t.Fatalf("PUT edit = %d: %s", code, body)
	}
	if text := explainText(t, base); !strings.Contains(text, "filter_by amount > 7") {
		t.Errorf("explain after a save shows the previous tip's plan:\n%s", text)
	}
}

// raceFlow is interactiveFlow over an uploaded file, so each run reads
// whichever upload was current when it started.
var raceFlow = strings.Replace(interactiveFlow, "source: mem:sales.csv", "source: data:sales.csv", 1)

// kernelFlow is a filter, a map and two group-bys over an uploaded file,
// and the filter again over the map's wider column list: each stage runs
// on a columnar kernel, bound once by the program for each column list.
const kernelFlow = `
D:
  sales: [region, product, amount]

D.sales:
  source: data:sales.csv
  format: csv

F:
  D.scaled: D.sales | T.keep | T.double
  +D.by_region: D.scaled | T.sum_by_region
  +D.by_product: D.scaled | T.sum_by_product
  +D.kept: D.scaled | T.keep

T:
  keep:
    type: filter_by
    filter_expression: amount > 0
  double:
    type: map
    operator: expr
    expression: amount * 2
    output: doubled
  sum_by_region:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: doubled
        out_field: total
  sum_by_product:
    type: groupby
    groupby: [product]
    aggregates:
      - operator: sum
        apply_on: doubled
        out_field: total
`

// cellFlow is kernelFlow with a map operator that runs a cell function,
// upper in place, fused between its filter and its expr map.
var cellFlow = strings.Replace(kernelFlow, "T.keep | T.double", "T.keep | T.shout | T.double", 1) + `  shout:
    type: map
    operator: upper
    transform: region
`

// bigSalesCSV is n rows of salesCSV's shape, a few of them filtered out.
func bigSalesCSV(n int) string {
	var b strings.Builder
	for i := range n {
		fmt.Fprintf(&b, "%s,p%d,%d\n", []string{"east", "west", "north", "south"}[i%4], i%7, i*7%50)
	}
	return b.String()
}

// TestConcurrentRunsShareProgram: runs of one tip share one program
// while uploads alternate under them and lint, check and explain read
// the same slot — under -race this proves the program is read-only to
// all of them, the columnar kernels it binds once included, a map
// operator's shared cell function among them — and every
// run's endpoints equal those of a fresh Platform.Compile + Run on the
// upload that run read.
func TestConcurrentRunsShareProgram(t *testing.T) {
	for _, tc := range []struct {
		name, flow string
		uploads    []string
		columnar   bool // every stage of every run takes its kernel
	}{
		{"race", raceFlow, []string{salesCSV, salesCSV + "north,gizmo,40\nwest,gadget,7\n"}, false},
		{"kernels", kernelFlow, []string{bigSalesCSV(300), bigSalesCSV(400)}, true},
		{"cells", cellFlow, []string{bigSalesCSV(300), bigSalesCSV(400)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) { concurrentRuns(t, tc.name, tc.flow, tc.uploads, tc.columnar) })
	}
}

func concurrentRuns(t *testing.T, name, flow string, uploads []string, columnar bool) {
	s, ts := newTestServer(t)
	f, err := flowfile.Parse(name, flow)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, csv := range uploads {
		d, err := dashboard.NewPlatform().Compile(f, map[string][]byte{"sales.csv": []byte(csv)})
		if err == nil {
			err = d.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		d.WriteEndpoints(&b, "", true, 0)
		want[csv] = b.String()
	}
	if _, err := s.SaveDashboard(name, "tester", []byte(flow)); err != nil {
		t.Fatal(err)
	}
	s.UploadData(name, "sales.csv", []byte(uploads[0]))
	first, err := s.Run(name)
	if err != nil {
		t.Fatal(err)
	}
	prog := first.Program
	// The first shared run is certain to miss the cache: the upload it
	// reads is not the one the first run read.
	s.UploadData(name, "sales.csv", []byte(uploads[1]))
	var kernels atomic.Int64 // stages the shared runs executed

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				d, err := s.RunContext(context.Background(), name)
				if err != nil {
					t.Error(err)
					return
				}
				var b strings.Builder
				d.WriteEndpoints(&b, "", true, 0)
				if csv := string(d.Env().Resources["sales.csv"]); b.String() != want[csv] {
					t.Errorf("run on upload %q:\n%s\nwant:\n%s", csv, b.String(), want[csv])
				}
				if d.Program != prog {
					t.Error("a run at an unchanged tip compiled its own program")
				}
				for _, st := range d.Result().Stats.Timings { // none when every node was a cache hit
					if columnar && st.Path != batch.PathColumnar {
						t.Errorf("stage %s of D.%s ran on the %s path", st.Stage, st.Output, st.Path)
					}
					kernels.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			s.UploadData(name, "sales.csv", []byte(uploads[i%2]))
		}
	}()
	for _, path := range []string{"/lint", "/check", "/explain"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if code, body := do(t, http.MethodGet, ts.URL+"/dashboards/"+name+path, ""); code != 200 {
					t.Errorf("GET %s = %d: %s", path, code, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	if columnar && kernels.Load() < 3 {
		t.Errorf("the shared runs executed %d stages on kernels, want at least 3", kernels.Load())
	}
}

// TestProgramCompiledOncePerTip: the program the save's lint compiles is
// the one every run of that tip executes, uploads included; a save, a
// merge into main and a publish of a shared input each compile a new
// one, and so does a follower whose applied WAL moved the tip.
func TestProgramCompiledOncePerTip(t *testing.T) {
	s, ts := newTestServer(t)
	base := ts.URL + "/dashboards/slot"
	run := func(s *Server, name string) *dashboard.Program {
		t.Helper()
		d, err := s.Run(name)
		if err != nil {
			t.Fatal(err)
		}
		return d.Program
	}
	if code, body := do(t, http.MethodPut, base, serverFlow); code != 200 {
		t.Fatalf("PUT = %d: %s", code, body)
	}
	p0 := slotProgram(s, "slot")
	if p0 == nil {
		t.Fatal("the save's lint compiled no program")
	}
	for i := 0; i < 2; i++ {
		if p := run(s, "slot"); p != p0 {
			t.Fatalf("run %d compiled again at an unchanged tip", i)
		}
	}
	s.UploadData("slot", "notes.txt", []byte("hi"))
	do(t, http.MethodGet, base+"/lint", "")
	do(t, http.MethodGet, base+"/explain", "")
	if p := run(s, "slot"); p != p0 {
		t.Fatal("an upload, a lint or an explain compiled again")
	}

	// A save.
	if code, body := do(t, http.MethodPut, base, serverFlow+"\n"); code != 200 {
		t.Fatalf("second PUT = %d: %s", code, body)
	}
	p1 := run(s, "slot")
	if p1 == p0 || p1 != slotProgram(s, "slot") {
		t.Fatal("a save kept the previous tip's program")
	}

	// A merge into main.
	if code, body := do(t, http.MethodPost, base+"/branches/edit", ""); code != 200 {
		t.Fatalf("branch = %d: %s", code, body)
	}
	if code, body := do(t, http.MethodPut, base+"/branches/edit", serverFlow+"\n\n"); code != 200 {
		t.Fatalf("branch PUT = %d: %s", code, body)
	}
	if p := run(s, "slot"); p != p1 {
		t.Fatal("a save to another branch compiled main again")
	}
	if code, body := do(t, http.MethodPost, base+"/merge/edit", ""); code != 200 {
		t.Fatalf("merge = %d: %s", code, body)
	}
	p2 := run(s, "slot")
	if p2 == p1 {
		t.Fatal("a merge into main kept the previous tip's program")
	}

	// A publish that bumps the version of a shared input.
	putAndRun(t, ts, "producer", serverFlow+"\nD.by_region:\n  publish: region_totals\n")
	if code, body := do(t, http.MethodPut, ts.URL+"/dashboards/consumer", "F:\n  +D.report: D.region_totals | T.top\n\nT:\n  top:\n    type: topn\n    orderby_column: [total DESC]\n    limit: 1\n"); code != 200 {
		t.Fatalf("consumer PUT = %d: %s", code, body)
	}
	c0 := run(s, "consumer")
	if run(s, "consumer") != c0 {
		t.Fatal("the consumer compiled again with its shared input unchanged")
	}
	if _, err := s.Run("producer"); err != nil {
		t.Fatal(err)
	}
	if run(s, "consumer") == c0 {
		t.Fatal("a republished shared input kept the consumer's program")
	}

	// A follower's WAL apply.
	_, lts, _ := newDurableServer(t, store.NewMemFS(), false)
	putAndRun(t, lts, "sales", durableFlow)
	fol, fs, _, _ := startFollower(t, lts, 0)
	f0 := run(fs, "sales")
	if run(fs, "sales") != f0 {
		t.Fatal("the follower compiled again at an unchanged tip")
	}
	if code, body := do(t, http.MethodPut, lts.URL+"/dashboards/sales", durableFlow+"\n"); code != 200 {
		t.Fatalf("leader second PUT = %d: %s", code, body)
	}
	if err := fol.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if run(fs, "sales") == f0 {
		t.Fatal("the follower kept the program of a tip its WAL apply moved")
	}
}

// rerunAllocs is what one re-run of interactiveFlow at an unchanged tip
// allocates through Server.Run, every node a cache hit (go1.24,
// linux/amd64). Compiling the flow on every run, as the server did
// before it kept a program per tip, allocated 502; formatting stage and
// span names, copying and sorting every profile of the flow to plan, and
// a heap object or two per span, as runs did before, 209.
const rerunAllocs = 157

// TestRerunAllocs pins a served re-run at an unchanged tip to building
// per-run state over the slot's program: at most rerunAllocs + 10 %.
func TestRerunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s, _ := newTestServer(t)
	if _, err := s.SaveDashboard("pin", "tester", []byte(interactiveFlow)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("pin"); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { s.Run("pin") }); n > rerunAllocs*1.1 {
		t.Errorf("a re-run at an unchanged tip allocates %.0f objects, want at most %d + 10 %%", n, rerunAllocs)
	}
}

// refreshRunAllocs is what one served run of kernelFlow allocates after
// a fresh upload of 300 rows, every node recomputed and its five stages
// on columnar kernels the program bound on its first run (go1.24,
// linux/amd64). Binding the filter again for its second column list on
// every run allocated 279; binding every kernel again on every run, 328;
// that, formatting the names and planning as runs did before, 423.
const refreshRunAllocs = 269

// TestRefreshRunAllocs pins a served run over new data to reusing the
// program's kernels and names: at most refreshRunAllocs + 2 %.
func TestRefreshRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, _ := newTestServer(t)
	if _, err := s.SaveDashboard("fresh", "tester", []byte(kernelFlow)); err != nil {
		t.Fatal(err)
	}
	var total uint64
	const warm, runs = 4, 20
	for i := range warm + runs {
		// Each upload differs (a product name carries i), so no node is a cache hit.
		s.UploadData("fresh", "sales.csv", []byte(strings.ReplaceAll(bigSalesCSV(300), ",p0,", fmt.Sprintf(",p0-%d,", i))))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := s.Run("fresh")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if hits := d.Result().Stats.CacheHits; len(hits) > 0 {
			t.Fatalf("run %d served %v from the node cache", i, hits)
		}
		for _, st := range d.Result().Stats.Timings {
			if st.Path != batch.PathColumnar {
				t.Fatalf("run %d: stage %s of D.%s ran on the %s path", i, st.Stage, st.Output, st.Path)
			}
		}
		if i >= warm {
			total += after.Mallocs - before.Mallocs
		}
	}
	n := float64(total) / runs
	if n > refreshRunAllocs*1.02 {
		t.Errorf("a served run over new data allocates %.0f objects, want at most %d + 2 %%", n, refreshRunAllocs)
	}
}
