package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"shareinsights/internal/admission"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/store"
)

// rowRequest is a request that matches the row's pattern, for the given
// dashboard name; every other wildcard becomes "x".
func rowRequest(rt route, base, name string) (method, url string) {
	method, path, _ := strings.Cut(rt.pattern, " ")
	path = strings.Replace(path, "{name}", name, 1)
	path = regexp.MustCompile(`\{[a-z]+\}`).ReplaceAllString(path, "x")
	return method, base + path
}

// TestRouteTableContract checks the serving chain against the table
// itself: whatever a row declares is what a request matching it gets.
func TestRouteTableContract(t *testing.T) {
	durable, dts, _ := newDurableServer(t, store.NewMemFS(), false)
	rows := durable.routes()

	t.Run("mounted once, instrumented under its own pattern", func(t *testing.T) {
		if len(rows) != 37 {
			t.Errorf("route table has %d rows, want 37", len(rows))
		}
		seen := map[string]bool{}
		for _, rt := range rows {
			if seen[rt.pattern] {
				t.Errorf("pattern %q is in the table twice", rt.pattern)
			}
			seen[rt.pattern] = true
			method, url := rowRequest(rt, dts.URL, "ghost")
			do(t, method, url, "")
		}
		_, metrics := do(t, "GET", dts.URL+"/metrics", "")
		for _, rt := range rows {
			method, _, _ := strings.Cut(rt.pattern, " ")
			if series := `si_http_requests_total{route="` + rt.pattern + `",method="` + method + `"`; !strings.Contains(string(metrics), series) {
				t.Errorf("no %s…} series after one request: the row is not mounted behind the metrics middleware", series)
			}
		}
	})

	t.Run("needs", func(t *testing.T) {
		_, ts := newTestServer(t)
		if code, body := do(t, "PUT", ts.URL+"/dashboards/saved", serverFlow); code != 200 {
			t.Fatalf("put: %d %s", code, body)
		}
		// An unknown dashboard fails a repo need; an unknown or a saved but
		// never run one fails a live need. One body per need, every row.
		for _, rt := range rows {
			names, want := []string{"ghost", "saved"}, `{"error":"dashboard \"%s\" has not been run"}`
			switch rt.needs {
			case needNone:
				continue
			case needRepo:
				names, want = names[:1], `{"error":"no dashboard \"%s\""}`
			}
			for _, name := range names {
				method, url := rowRequest(rt, ts.URL, name)
				want := fmt.Sprintf(want, name)
				if code, body := do(t, method, url, serverFlow); code != 404 || strings.TrimSpace(string(body)) != want {
					t.Errorf("%s for %q = %d %s, want 404 %s", rt.pattern, name, code, body, want)
				}
			}
		}
	})

	t.Run("admit", func(t *testing.T) {
		s, ts := newAdmissionServer(t, admission.Config{MaxInFlight: 1, QueueDepth: 0})
		release, err := s.Gate().Acquire(context.Background(), "holder")
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		for _, rt := range s.routes() {
			method, url := rowRequest(rt, ts.URL, "ghost")
			resp := doTenant(t, method, url, "")
			resp.Body.Close()
			shed := resp.StatusCode == http.StatusTooManyRequests
			if shed != (rt.attrs&admit != 0) {
				t.Errorf("%s under a full gate = %d, but admit = %v", rt.pattern, resp.StatusCode, rt.attrs&admit != 0)
			}
			if shed && resp.Header.Get("Retry-After") == "" {
				t.Errorf("%s: 429 without Retry-After", rt.pattern)
			}
		}
	})

	t.Run("write on a follower", func(t *testing.T) {
		lts, _, fts, _ := newFollowerServer(t, 0)
		for _, rt := range rows {
			if strings.HasPrefix(rt.pattern, "GET /replica/") {
				continue // followers have no store to ship from
			}
			method, url := rowRequest(rt, fts.URL, "ghost")
			code, hdr, _ := doFull(t, method, url, "")
			if (code == http.StatusTemporaryRedirect) != (rt.attrs&write != 0) {
				t.Errorf("%s on a follower = %d, but write = %v", rt.pattern, code, rt.attrs&write != 0)
			}
			if code == http.StatusTemporaryRedirect && !strings.HasPrefix(hdr.Get("Location"), lts.URL) {
				t.Errorf("%s: 307 Location %q does not name the leader %s", rt.pattern, hdr.Get("Location"), lts.URL)
			}
			if code != http.StatusTemporaryRedirect && hdr.Get(ReplicaLagHeader) == "" {
				t.Errorf("%s on a follower carries no %s", rt.pattern, ReplicaLagHeader)
			}
		}
	})

	t.Run("gated past max-lag", func(t *testing.T) {
		_, _, fts, clk := newFollowerServer(t, 2*time.Second)
		clk.Advance(5 * time.Second)
		for _, rt := range rows {
			if strings.HasPrefix(rt.pattern, "GET /replica/") || rt.attrs&write != 0 {
				continue
			}
			method, url := rowRequest(rt, fts.URL, "ghost")
			code, _, _ := doFull(t, method, url, "")
			if (code == http.StatusServiceUnavailable) != (rt.attrs&gated != 0) {
				t.Errorf("%s on a follower past max-lag = %d, but gated = %v", rt.pattern, code, rt.attrs&gated != 0)
			}
		}
	})
}

// TestRoutesDocumented: docs/SERVING.md's "REST routes" table and the
// route table are the same rows with the same attributes.
func TestRoutesDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "SERVING.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]string{} // pattern -> "needs|admit|write|gated"
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 7 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		documented[strings.Trim(cells[1], "`")] = strings.Join(cells[2:6], "|")
	}
	durable, _, _ := newDurableServer(t, store.NewMemFS(), false)
	yes := func(b bool) string {
		if b {
			return "yes"
		}
		return ""
	}
	for _, rt := range durable.routes() {
		want := strings.Join([]string{
			map[need]string{needNone: "-", needRepo: "repo", needLive: "live"}[rt.needs],
			yes(rt.attrs&admit != 0), yes(rt.attrs&write != 0), yes(rt.attrs&gated != 0),
		}, "|")
		got, ok := documented[rt.pattern]
		switch {
		case !ok:
			t.Errorf("route %q has no row in docs/SERVING.md", rt.pattern)
		case got != want:
			t.Errorf("docs/SERVING.md says %q is needs|admit|write|gated = %q, the table says %q", rt.pattern, got, want)
		}
		delete(documented, rt.pattern)
	}
	for pattern := range documented {
		t.Errorf("docs/SERVING.md documents %q, which is not in the route table", pattern)
	}
}

// TestServingStructure pins the shape of the package by its source: one
// place mounts routes, one place parses flow files.
func TestServingStructure(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	for pattern, want := range map[string]int{
		`mux\.Handle`:                          1,
		`flowfile\.Parse\(`:                    1,
		`\.(Commit|Merge|MergeIf)\(`:           2, // commit's two arms
		`map\[string\]\*entry\b`:               2, // the field and its initialiser
		`map\[string\]\*(vcs|dashboard|obs)\.`: 1, // setRepos' argument, no name-keyed state
	} {
		if n := len(regexp.MustCompile(pattern).FindAllString(src.String(), -1)); n != want {
			t.Errorf("%d matches of %s in the package's non-test source, want %d", n, pattern, want)
		}
	}
}

// TestFlowParsedOncePerTip: every run, lint, check and explain of one
// commit tip shares one parsed *flowfile.File — concurrently, so -race
// proves the sharing is read-only — a result-cache hit does not parse,
// and a save replaces the file with the one the save itself parsed.
func TestFlowParsedOncePerTip(t *testing.T) {
	s, ts := newAdmissionServer(t, admission.Config{})
	base := ts.URL + "/dashboards/tip"
	if code, body := do(t, "PUT", base, serverFlow); code != 200 {
		t.Fatalf("put: %d %s", code, body)
	}
	tipSlot := func() slot {
		sl, _, err := s.compiled(s.lookup("tip"))
		if err != nil {
			t.Fatal(err)
		}
		return sl
	}
	tipFile := func() *flowfile.File { return tipSlot().file }
	sl0 := tipSlot()
	f0 := sl0.file

	var wg sync.WaitGroup
	for _, op := range [][2]string{
		{"POST", "/run"}, {"POST", "/run"}, {"GET", "/lint"}, {"GET", "/check"}, {"GET", "/explain"},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if code, body := do(t, op[0], base+op[1], ""); code != 200 {
					t.Errorf("%s %s = %d: %s", op[0], op[1], code, body)
					return
				}
			}
		}()
	}
	// Uncached runs on the same tip, racing the rest: each compiles and
	// executes the shared file.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tg := s.lookup("tip")
		for i := 0; i < 20; i++ {
			if d, err := s.execute(context.Background(), tg, sl0); err != nil || d.File != f0 {
				t.Errorf("execute on the shared file: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if tipFile() != f0 {
		t.Error("runs, lints and cache hits on one tip re-parsed the flow file")
	}
	resp := doTenant(t, "POST", base+"/run", "")
	resp.Body.Close()
	if got := resp.Header.Get(ResultCacheHeader); got != admission.OutcomeHit {
		t.Fatalf("repeat run = %q, want a result-cache hit", got)
	}
	if d, err := s.Run("tip"); err != nil || d.File != f0 {
		t.Errorf("a cache hit serves a dashboard compiled from another parse (err %v)", err)
	}

	// A save parses again — once: the next run uses the file the save parsed.
	if code, body := do(t, "PUT", base, serverFlow+"\n"); code != 200 {
		t.Fatalf("second put: %d %s", code, body)
	}
	f1 := s.lookup("tip").e.slot.file
	if f1 == f0 {
		t.Fatal("a save kept the previous tip's parsed file")
	}
	if d, err := s.Run("tip"); err != nil || d.File != f1 || tipFile() != f1 {
		t.Errorf("the run after a save parsed again instead of using the save's file (err %v)", err)
	}
}

// TestUnroutedAnswersJSON: a request no route takes — an unknown path, an
// empty last segment, an empty, "." or ".." segment (which the stdlib mux
// would redirect with an HTML body), a method the path does not route —
// answers the JSON error shape, as every routed error does: a 404, or a
// 405 whose Allow lists the methods the path takes.
func TestUnroutedAnswersJSON(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		method, path string
		code         int
		allow        string
	}{
		{"GET", "/nope", http.StatusNotFound, ""},
		{"POST", "/dashboards/sales/select/", http.StatusNotFound, ""},
		{"GET", "/dashboards/sales/ds/", http.StatusNotFound, ""},
		{"GET", "/dashboards/sales/ds//groupby/a/b/c", http.StatusNotFound, ""},
		{"GET", "/dashboards/sales/ds/../ds", http.StatusNotFound, ""},
		{"POST", "/dashboards/sales/select/.", http.StatusNotFound, ""},
		{"DELETE", "/dashboards/sales", http.StatusMethodNotAllowed, "GET, HEAD, PUT"},
		{"POST", "/health", http.StatusMethodNotAllowed, "GET, HEAD"},
	} {
		rec := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		var shape struct{ Error string }
		if rec.Code != tc.code || rec.Header().Get("Allow") != tc.allow ||
			rec.Header().Get("Content-Type") != "application/json" || json.Unmarshal(rec.Body.Bytes(), &shape) != nil || shape.Error == "" {
			t.Errorf("%s %s = %d, Allow %q, %q: want %d, Allow %q and the JSON error shape",
				tc.method, tc.path, rec.Code, rec.Header().Get("Allow"), rec.Body, tc.code, tc.allow)
		}
	}
}
