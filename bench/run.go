package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// setups is how many times an end-to-end run sets the workload up; it
// reports the median, and measures on the last instance.
const setups = 3

// replays is how many cycles the layer replay re-enacts.
const replays = 12

// measured is one reported value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run of one workload produced. The driver's
// contract wants four of these fields on the last line of the output; the
// rest is printed above it.
type report struct {
	Workload  string
	Seed      int64
	Traced    bool
	Env       envHeader
	Warmup    int
	Cycles    int
	SeqHash   string
	Correct   bool
	Attempted int
	Failed    int
	FirstErr  string
	Noisy     bool
	Spread    float64
	Metrics   map[string]measured
	// Timing holds the end-to-end timing metrics of an untraced run: not
	// part of the driver's result line, which carries the bounded
	// metrics only.
	Timing map[string]measured
	Layers *layerTable
}

type runConfig struct {
	seed   int64
	cycles int // measured cycles of an end-to-end run
	trace  bool
	outDir string
	// setups and replays default to the constants of the same name; the
	// smoke test lowers them.
	setups, replays int
}

// warmupCycles is the discarded prefix: a tenth of the ops, and never
// fewer than it takes to run every dashboard historyPriming times, which
// primes the flight recorder's baselines and fills every cache.
func warmupCycles(cycles, dashboards int) int {
	return max((cycles+9)/10, historyPriming*dashboards)
}

// setUp builds one instance of the workload and warms it up; the time it
// takes is one setup_s observation.
func setUp(w workload, cfg runConfig, warm int) (*env, time.Duration, error) {
	t0 := time.Now()
	e, err := w.setup(cfg.seed, filepath.Join(cfg.outDir, "data"))
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if err := e.warmUp(warm, historyPriming*w.dashboards); err != nil {
		e.stop()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return e, time.Since(t0), nil
}

func (e *env) seqHash() string {
	if e.sys != nil {
		return fmt.Sprintf("%016x", e.sys.seq.Sum64())
	}
	return fmt.Sprintf("%016x", e.seq())
}

// runWorkload is one run: the untraced end-to-end run, or with cfg.trace
// the per-layer run.
func runWorkload(w workload, cfg runConfig) (*report, error) {
	if cfg.trace {
		return runTraced(w, cfg)
	}
	rep := &report{Workload: w.name, Seed: cfg.seed, Env: readEnv(cfg.outDir), Cycles: cfg.cycles, Metrics: map[string]measured{}}
	rep.Warmup = warmupCycles(cfg.cycles, w.dashboards)
	var e *env
	var setupS []float64
	for k := 0; k < cfg.setups; k++ {
		if e != nil {
			e.stop()
		}
		var took time.Duration
		var err error
		if e, took, err = setUp(w, cfg, rep.Warmup); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}
	defer func() { e.stop() }()

	s := e.measure(rep.Warmup, cfg.cycles)
	live := liveHeapMB()
	rep.count(s)
	rep.conclude(e, s)

	n := float64(s.cycles)
	for name, v := range map[string]float64{
		"setup_s":          median(setupS),
		"alloc_kb_per_op":  float64(s.mem1.TotalAlloc-s.mem0.TotalAlloc) / 1024 / n,
		"allocs_per_op":    float64(s.mem1.Mallocs-s.mem0.Mallocs) / n,
		"live_heap_mb":     live,
		"output_kb_per_op": float64(s.outBytes) / 1024 / n,
	} {
		rep.set(name, v, endToEnd)
	}
	rep.Timing = map[string]measured{}
	for _, m := range timing {
		rep.Timing[m.name] = measured{Value: finite(s.timing()[m.name]), Unit: m.unit}
	}
	return rep, nil
}

func (r *report) set(name string, v float64, table []metric) {
	for _, m := range table {
		if m.name == name {
			r.Metrics[name] = measured{Value: finite(v), Unit: m.unit}
			return
		}
	}
	panic("bench: unknown metric " + name)
}

// finite maps the +Inf of a failed op (it sorts above every latency) to
// a number JSON can carry; the run is already marked incorrect.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat32
	}
	return v
}

// timing computes the end-to-end timing metrics of a section.
func (s *sample) timing() map[string]float64 {
	n := float64(s.cycles)
	return map[string]float64{
		"op_p50_ms":        median(s.opMS),
		"op_p95_ms":        percentile(s.opMS, 0.95),
		"throughput_ops_s": n / s.wall.Seconds(),
		"cpu_ms_per_op":    ms(s.cpu) / n,
		"run_p50_ms":       median(s.stepMS["run"]),
	}
}

func (r *report) fail(err error) {
	r.Failed++
	if r.FirstErr == "" {
		r.FirstErr = err.Error()
	}
}

// conclude runs the durability check, if the workload has one, and
// closes the books: the op-sequence hash, the noisy-neighbour verdict on
// the untraced section s, and whether every op succeeded.
func (r *report) conclude(e *env, s *sample) {
	if e.verify != nil {
		r.Attempted++
		if err := e.verify(); err != nil {
			r.fail(fmt.Errorf("durability: %w", err))
		}
	}
	r.SeqHash = e.seqHash()
	r.Spread = s.blockSpread()
	r.Noisy = r.Spread > noisySpread
	r.Correct = r.Failed == 0
}

// count adds a section's ops to the report.
func (r *report) count(s *sample) {
	r.Attempted += s.cycles
	r.Failed += s.failed
	if s.firstEr != nil && r.FirstErr == "" {
		r.FirstErr = s.firstEr.Error()
	}
}

// quiet fetches a path outside the books: no span, no op-sequence
// entry, no response-byte count. The traced run reads the program's own
// trace and counters this way.
func (s *system) quiet(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, err
}

func (s *system) scrape() (scrape, error) {
	b, err := s.quiet("/metrics")
	if err != nil {
		return nil, err
	}
	return parseScrape(b), nil
}

// runTraced is the per-layer run: one set-up, a quarter of the ops
// untraced, a quarter with spans on, then the layer replay. End-to-end
// numbers never come from here.
func runTraced(w workload, cfg runConfig) (*report, error) {
	quarter := max(cfg.cycles/4, blocks)
	rep := &report{Workload: w.name, Seed: cfg.seed, Traced: true, Env: readEnv(cfg.outDir), Cycles: quarter, Metrics: map[string]measured{}}
	rep.Warmup = warmupCycles(cfg.cycles, w.dashboards)
	e, _, err := setUp(w, cfg, rep.Warmup)
	if err != nil {
		return nil, err
	}
	defer e.stop()

	plain := e.measure(rep.Warmup, quarter)
	rep.count(plain)

	rec := newRecorder()
	e.rec = rec
	tf := traceFacts{cycles: quarter, batch: e.sys == nil, walBytes: map[string]float64{}}
	if e.sys != nil {
		e.sys.rec = rec
		if tf.before, err = e.sys.scrape(); err != nil {
			return nil, err
		}
		if e.dataDir != "" {
			e.wal = &walMeter{last: map[string]float64{}, total: tf.walBytes}
			if err := e.wal.observe(e.sys); err != nil {
				return nil, err
			}
			clear(tf.walBytes) // the first reading only sets the baseline
		}
	}
	traced := e.measure(rep.Warmup+quarter, quarter)
	rep.count(traced)
	if e.sys != nil {
		if tf.after, err = e.sys.scrape(); err != nil {
			return nil, err
		}
	}

	rp := &replayer{rec: rec}
	for i := 0; i < cfg.replays && rp.err == nil; i++ {
		rec.cycle = rep.Warmup + quarter + i
		e.replay(rp, rec.cycle)
	}
	// A compaction is replayed at the size the store last wrote, and
	// priced at how often the traced section compacted.
	snapshots := map[string]float64{}
	if e.replaySnapshot != nil {
		for _, c := range []string{"vcs", "catalog", "cache", "history"} {
			label := `component="` + c + `"`
			if snapshots[c] = tf.after.sum("si_store_snapshots_total", label) - tf.before.sum("si_store_snapshots_total", label); snapshots[c] > 0 {
				e.replaySnapshot(rp, c, int(tf.after.sum("si_store_snapshot_bytes", label)))
			}
		}
	}
	if rp.err != nil {
		rep.fail(rp.err)
	}
	e.rec = nil
	if e.sys != nil {
		e.sys.rec = nil
	}
	rep.conclude(e, plain)

	lt, m := attribute(w.name, rec.spans, tf)
	rep.Layers = lt
	n := float64(quarter)
	for step, name := range map[string]string{
		"run": "server.run_p50_ms", "html": "server.html_p50_ms", "select": "server.select_p50_ms",
		"adhoc": "server.adhoc_p50_ms", "save": "server.put_flow_p50_ms", "put_data": "server.put_data_p50_ms",
		"stats": "server.stats_p50_ms",
	} {
		if e.sys != nil {
			m[name] = median(plain.stepMS[step])
		}
	}
	if e.sys != nil {
		m["server.op_p99_ms"] = percentile(plain.opMS, 0.99)
		m["server.resp_kb_per_op"] = float64(plain.outBytes) / 1024 / n
	}
	for c, count := range snapshots {
		fn := "store.Dir.Snapshot(" + c + ")"
		lt.ReplayMS[fn] *= count / n // from ms per snapshot to ms per cycle
		m["store.compact_ms_per_op"] += lt.ReplayMS[fn]
	}
	if saved := e.savedBytesPerOp; saved > 0 {
		m["store.write_amp"] = m["store.bytes_written_per_op"] / saved
	}
	if rows := e.sourceRowsPerOp; rows > 0 {
		m["connector.rows_skipped_ratio"] = max(0, 1-m["connector.rows_decoded_per_op"]/rows)
	}
	if dec := m["connector.decode_ms_per_op"]; dec > 0 {
		m["connector.decode_mb_s"] = e.sourceBytesPerOp / 1e6 / (dec / 1000)
	}
	m["store.disk_mb_end"] = e.diskMB
	m["store.recover_ms"] = e.recoverMS
	m["runtime.gc_cpu_share"] = plain.gcCPU / plain.cpu.Seconds()
	m["runtime.gc_cycles_per_op"] = float64(plain.mem1.NumGC-plain.mem0.NumGC) / n
	for name, v := range plain.timing() {
		m[name] = v
	}
	m["runtime.peak_heap_mb"] = float64(plain.mem1.HeapSys) / (1 << 20)
	m["trace.overhead_ratio"] = median(traced.opMS) / median(plain.opMS)
	m["run.block_spread"] = rep.Spread
	for _, pm := range perLayer {
		rep.set(pm.name, m[pm.name], perLayer)
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeChrome(filepath.Join(cfg.outDir, w.name+".trace.json"), rec.spans); err != nil {
		return nil, err
	}
	return rep, mergeLayers(filepath.Join(cfg.outDir, "layers.json"), lt)
}

// mergeLayers rewrites layers.json with this workload's table replaced:
// each workload runs in its own process, the file holds all of them.
func mergeLayers(path string, lt *layerTable) error {
	all := map[string]*layerTable{}
	if b, err := os.ReadFile(path); err == nil {
		// A damaged file is rebuilt from this run on.
		_ = json.Unmarshal(b, &all)
	}
	all[lt.Workload] = lt
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// envHeader is carried by every output: enough to tell two results from
// different machines or builds apart.
type envHeader struct {
	Commit      string
	GoVersion   string
	GOMAXPROCS  int
	NProc       int
	CPUModel    string
	DataDirFS   string
	FlushPolicy string
}

func readEnv(outDir string) envHeader {
	h := envHeader{
		Commit: buildCommit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPUModel: "unknown", DataDirFS: filesystemOf(outDir), FlushPolicy: flushPolicy,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// buildCommit is the revision the binary was built from, when the build
// happened inside a git work tree; the driver's checkout is not one.
func buildCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem holding dir (or its nearest existing
// parent): fsync on tmpfs and on a disk are different promises.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	for {
		if err := syscall.Statfs(dir, &st); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("type 0x%x", uint32(st.Type))
}
