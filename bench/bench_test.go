package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is the shape of ../BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestBenchmarkFileMatchesTables holds BENCHMARK.json and the tables in
// metrics.go and workloads.go to each other, name by name.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why == "" {
			t.Errorf("workload %d: file has %q (why %q), benchmark has %q", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the benchmark %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range endToEnd {
		g := f.EndToEnd[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
			t.Errorf("end-to-end %d: file has %+v, benchmark has %+v", i, g, m)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	for i, m := range perLayer {
		if g := f.PerLayer[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
			t.Errorf("per-layer %d: file has %+v, benchmark has %+v", i, g, m)
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %q: better is %q", m.name, m.better)
		}
		if !metricName.MatchString(m.name) || m.unit == "" || seen[m.name] {
			t.Errorf("metric %q: bad name, empty unit or duplicate", m.name)
		}
		seen[m.name] = true
	}
}

// reportedExactly fails unless rep carries exactly the metrics of table,
// each with its unit.
func reportedExactly(t *testing.T, rep *report, table []metric) {
	t.Helper()
	if len(rep.Metrics) != len(table) {
		t.Errorf("%s: %d metrics reported, want %d", rep.Workload, len(rep.Metrics), len(table))
	}
	for _, m := range table {
		if got, ok := rep.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("%s: metric %s reported as %+v (present %v), want unit %s", rep.Workload, m.name, got, ok, m.unit)
		}
	}
}

// TestWorkloadsSmoke runs every workload at about 1 % of its op count:
// the correctness and durability checks pass, the reported names are the
// tables', and the op sequence and the exact counts depend on the seed
// and on nothing else.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := runConfig{seed: 7, cycles: max(int(w.cyclesPerSecond*0.2), 2*blocks), outDir: t.TempDir(), setups: 1, replays: 2}
			run := func(cfg runConfig) *report {
				rep, err := runWorkload(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < cfg.cycles/4 {
					t.Fatalf("%s: correct=%v failed=%d attempted=%d: %s", w.name, rep.Correct, rep.Failed, rep.Attempted, rep.FirstErr)
				}
				return rep
			}
			reportedExactly(t, run(cfg), endToEnd)

			cfg.trace = true
			a, b := run(cfg), run(cfg)
			reportedExactly(t, a, perLayer)
			if a.SeqHash != b.SeqHash {
				t.Errorf("same seed, op-sequence hashes %s and %s", a.SeqHash, b.SeqHash)
			}
			for _, name := range []string{"connector.rows_decoded_per_op", "store.fsyncs_per_op", "dashboard.node_cache_hit_ratio"} {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("same seed, %s is %v and %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			// One cycle is enough to tell two seeds' sequences apart.
			firstCycle := func(seed int64) string {
				e, err := w.setup(seed, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer e.stop()
				if _, err := e.cycleOnce(0, make([]float64, len(e.steps))); err != nil {
					t.Fatal(err)
				}
				return e.seqHash()
			}
			if h := firstCycle(7); h != firstCycle(7) || h == firstCycle(8) {
				t.Errorf("the op-sequence hash of a first cycle must depend on the seed and on nothing else")
			}
			for _, out := range []string{w.name + ".trace.json", "layers.json"} {
				if st, err := os.Stat(cfg.outDir + "/" + out); err != nil || st.Size() == 0 {
					t.Errorf("traced run left no %s: %v", out, err)
				}
			}
		})
	}
}
