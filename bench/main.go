// Command bench is the benchmark of record: four closed-loop workloads
// driven from outside the program, ten bounded end-to-end metrics, and a
// traced run that attributes a cycle's time to modules. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: every workload, each in a fresh process)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs and the op sequence")
		seconds = flag.Float64("seconds", 20, "length of the measured section at the commit that added the benchmark; sets the fixed op count")
		trace   = flag.Int("trace", 0, "1: the per-layer traced run instead of the end-to-end run")
		aa      = flag.Int("aa", 0, "run this many interleaved pairs of full passes and compare the two sets' medians")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for traces, layer tables and the durable store's data")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *aa > 0:
		os.Exit(runAA(*aa, *seed, *seconds, *outDir))
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *trace, *outDir))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, cycles: max(int(w.cyclesPerSecond**seconds), blocks), trace: *trace == 1, outDir: *outDir,
		setups: setups, replays: replays}
	rep, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.Correct {
		os.Exit(1)
	}
}

// print writes the report for people, then, as the last line, the one
// JSON object the driver reads.
func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "workload %s seed %d traced %v\n", r.Workload, r.Seed, r.Traced)
	fmt.Fprintf(w, "env commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q data_dir_fs=%s flush=%q\n",
		r.Env.Commit, r.Env.GoVersion, r.Env.GOMAXPROCS, r.Env.NProc, r.Env.CPUModel, r.Env.DataDirFS, r.Env.FlushPolicy)
	fmt.Fprintf(w, "cycles warmup=%d measured=%d op_sequence_hash=%s\n", r.Warmup, r.Cycles, r.SeqHash)
	fmt.Fprintf(w, "ops_attempted=%d ops_failed=%d block_spread=%.3f noisy=%v\n", r.Attempted, r.Failed, r.Spread, r.Noisy)
	if r.FirstErr != "" {
		fmt.Fprintf(w, "first_error %s\n", r.FirstErr)
	}
	printMetrics := func(ms map[string]measured) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	printMetrics(r.Metrics)
	if r.Timing != nil {
		fmt.Fprintln(w, "timing (unbounded on this host, see bench/README.md):")
		printMetrics(r.Timing)
		if line, err := json.Marshal(r.Timing); err == nil {
			fmt.Fprintf(w, "%s%s\n", timingPrefix, line)
		}
	}
	if lt := r.Layers; lt != nil {
		fmt.Fprintf(w, "layers: cycle %.3f ms; self time share of the cycle\n", lt.CycleMS)
		layers := make([]string, 0, len(lt.Share))
		for l := range lt.Share {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return lt.Share[layers[i]] > lt.Share[layers[j]] })
		for _, l := range layers {
			fmt.Fprintf(w, "  %-12s %8.3f ms %6.1f%%\n", l, lt.SelfMS[l], 100*lt.Share[l])
		}
		fmt.Fprintf(w, "  %-12s %8.3f ms %6.1f%%\n", "unattributed", lt.UnattributedMS, 100*lt.UnattributedShare)
	}
	line, err := json.Marshal(result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// runOne re-executes this binary for one workload, so that every
// workload starts from a fresh heap, and returns its report.
func runOne(name string, seed int64, seconds float64, trace int, outDir string, echo bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	for _, l := range lines {
		if t, ok := strings.CutPrefix(l, timingPrefix); ok {
			if err := json.Unmarshal([]byte(t), &res.Timing); err != nil {
				return nil, fmt.Errorf("%s: timing line: %w", name, err)
			}
		}
	}
	return &res, nil
}

// timingPrefix starts the line on which an end-to-end run prints its
// timing metrics as JSON, for -aa to read back.
const timingPrefix = "timing_json "

// result is the driver-facing last line of a run, plus the timing line.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	Timing    map[string]measured `json:"-"`
}

// runAll is one pass: every workload once, each in its own process.
func runAll(seed int64, seconds float64, trace int, outDir string) int {
	code := 0
	for _, w := range workloads {
		res, err := runOne(w.name, seed, seconds, trace, outDir, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		} else if !res.Correct {
			code = 1
		}
	}
	return code
}
