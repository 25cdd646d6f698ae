package obs

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentUpdates hammers one counter, one gauge and one
// histogram from parallel goroutines; run under -race this is the
// concurrency-safety proof, and the totals check the arithmetic.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("si_test_ops_total", "ops", "kind")
	g := r.Gauge("si_test_depth", "depth")
	h := r.Histogram("si_test_latency_seconds", "latency", []float64{0.01, 0.1, 1})

	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := "even"
			if w%2 == 1 {
				kind = "odd"
			}
			for i := 0; i < perWorker; i++ {
				cv.With(kind).Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.05)
			}
		}(w)
	}
	wg.Wait()

	if got := cv.With("even").Value() + cv.With("odd").Value(); got != workers*perWorker {
		t.Errorf("counter total = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	want := 0.05 * workers * perWorker
	if got := h.Sum(); got < want*0.999 || got > want*1.001 {
		t.Errorf("histogram sum = %v, want ~%v", got, want)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("si_test_total", "t")
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5 (negative deltas ignored)", c.Value())
	}
}

// expositionLine matches one sample line of the Prometheus text format:
// a metric name, an optional label set, and a number.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[-+]?(Inf|[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?))$`)

// TestExpositionFormat is the golden-format test: every non-comment
// line must parse as a sample, every family must carry HELP and TYPE
// headers in order, and known series must show their exact values.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("si_requests_total", "Requests served.", "route", "class")
	c.With("/dashboards", "2xx").Add(3)
	c.With(`/weird"path`, "5xx").Inc() // label escaping
	r.Gauge("si_in_flight", "In-flight requests.").Set(2)
	h := r.Histogram("si_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	var families []string
	lastType := ""
	for i, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			lastType = "help"
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("line %d: malformed TYPE: %q", i+1, line)
				continue
			}
			if typ := parts[3]; typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Errorf("line %d: unknown TYPE %q", i+1, typ)
			}
			if lastType != "help" {
				t.Errorf("line %d: TYPE not preceded by HELP: %q", i+1, line)
			}
			families = append(families, parts[2])
			lastType = "type"
		default:
			if !expositionLine.MatchString(line) {
				t.Errorf("line %d: does not parse as a sample: %q", i+1, line)
			}
			lastType = "sample"
		}
	}
	wantFamilies := []string{"si_in_flight", "si_latency_seconds", "si_requests_total"}
	if len(families) != len(wantFamilies) {
		t.Fatalf("families = %v, want %v", families, wantFamilies)
	}
	for i := range families {
		if families[i] != wantFamilies[i] {
			t.Errorf("family[%d] = %q, want %q (sorted)", i, families[i], wantFamilies[i])
		}
	}

	for _, want := range []string{
		`si_requests_total{route="/dashboards",class="2xx"} 3`,
		`si_requests_total{route="/weird\"path",class="5xx"} 1`,
		`si_in_flight 2`,
		`si_latency_seconds_bucket{le="0.1"} 1`,
		`si_latency_seconds_bucket{le="1"} 2`,
		`si_latency_seconds_bucket{le="+Inf"} 3`,
		`si_latency_seconds_sum 5.55`,
		`si_latency_seconds_count 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q\ngot:\n%s", want, out)
		}
	}
}

// TestSeriesLookupAllocs pins that finding a held series allocates
// nothing, so an instrumented request pays no key for its metrics, and
// that the stack-built key is the label set the exposition always wrote.
func TestSeriesLookupAllocs(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("si_test_requests_total", "r", "route", "method", "class")
	hv := r.HistogramVec("si_test_duration_seconds", "d", nil, "route")
	route := "GET /dashboards/{name}/html"
	cv.With(route, "GET", "2xx").Inc()
	hv.With(route).Observe(0.1)
	if n := testing.AllocsPerRun(100, func() { cv.With(route, "GET", "2xx").Inc() }); n != 0 {
		t.Errorf("CounterVec.With on a held series allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { hv.With(route).Observe(0.1) }); n != 0 {
		t.Errorf("HistogramVec.With on a held series allocates %v objects, want 0", n)
	}

	// The key as it was built before, one string per label.
	escape := func(v string) string {
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		return strings.ReplaceAll(v, `"`, `\"`)
	}
	for _, vals := range [][]string{{"a", "b", "c"}, {`back\slash`, "new\nline", `"quoted"`}, {"", `\"` + "\n", "\xff"}} {
		want := `{route="` + escape(vals[0]) + `",method="` + escape(vals[1]) + `",class="` + escape(vals[2]) + `"}`
		if got := string(cv.f.appendKey(nil, vals)); got != want {
			t.Errorf("key of %q = %s, want %s", vals, got, want)
		}
	}
	if got := r.CounterVec("si_test_plain_total", "p").f.appendKey(nil, nil); len(got) != 0 {
		t.Errorf("an unlabelled series keys as %q, want no label set", got)
	}
}

// TestInstrumentAllocs pins that an instrumented request pays one object,
// its status recorder, and nothing for its latency and request series.
func TestInstrumentAllocs(t *testing.T) {
	r := NewRegistry()
	h := NewHTTPMetrics(r).Instrument("GET /x", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNotFound) })
	w, req := httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil)
	h(w, req)
	if n := testing.AllocsPerRun(100, func() { h(w, req) }); n > 1 {
		t.Errorf("an instrumented request allocates %v objects, want at most 1", n)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if want := `si_http_requests_total{route="GET /x",method="GET",class="4xx"} 102` + "\n"; !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, b.String())
	}
}

func TestRegisterConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("si_x_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("re-registering si_x_total as a gauge did not panic")
		}
	}()
	r.Gauge("si_x_total", "x")
}
