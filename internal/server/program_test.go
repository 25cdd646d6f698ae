package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"shareinsights/internal/dashboard"
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

// TestConcurrentRunsShareProgram: runs of one tip share one program
// while uploads alternate under them and lint, check and explain read
// the same slot — under -race this proves the program is read-only to
// all of them — and every run's endpoints equal those of a fresh
// Platform.Compile + Run on the upload that run read.
func TestConcurrentRunsShareProgram(t *testing.T) {
	s, ts := newTestServer(t)
	uploads := []string{salesCSV, salesCSV + "north,gizmo,40\nwest,gadget,7\n"}
	f, err := flowfile.Parse("race", raceFlow)
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
	if _, err := s.SaveDashboard("race", "tester", []byte(raceFlow)); err != nil {
		t.Fatal(err)
	}
	s.UploadData("race", "sales.csv", []byte(uploads[0]))
	first, err := s.Run("race")
	if err != nil {
		t.Fatal(err)
	}
	prog := first.Program

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				d, err := s.RunContext(context.Background(), "race")
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
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			s.UploadData("race", "sales.csv", []byte(uploads[i%2]))
		}
	}()
	for _, path := range []string{"/lint", "/check", "/explain"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if code, body := do(t, http.MethodGet, ts.URL+"/dashboards/race"+path, ""); code != 200 {
					t.Errorf("GET %s = %d: %s", path, code, body)
					return
				}
			}
		}()
	}
	wg.Wait()
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
// before it kept a program per tip, allocated 502.
const rerunAllocs = 212

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
