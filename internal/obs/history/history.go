// Package history is the platform's run-history flight recorder: every
// dashboard run is captured as a structured RunRecord — per-stage
// rows-in/rows-out/duration/queue-wait/path, retries, open breakers,
// degraded sources, cache hits — ring-buffered per
// dashboard and optionally persisted on the store substrate (one WAL
// append per run, snapshot + generation rotation, recoverable under
// FaultFS like every other component; see docs/DURABILITY.md).
//
// On top of the raw log the recorder maintains per-(flow hash, stage)
// profiles: observed selectivity (rows out / rows in), cardinality,
// latency quantiles from a streaming sketch (p50/p90/p99) and EWMA
// baselines, plus a comparator that flags stages regressing beyond a
// configurable threshold. The profiles are the data feed for the
// cost-based optimizer (ROADMAP item 3): re-running a dashboard can be
// planned from what the last runs actually measured.
//
// It lives in a subpackage of internal/obs because it depends on
// internal/store; internal/obs itself stays standard-library-only.
package history

import (
	"encoding/json"
	"sort"
	"sync"
	"time"

	"shareinsights/internal/obs"
	"shareinsights/internal/store"
)

// StageRecord is one executed pipeline stage inside a RunRecord.
type StageRecord struct {
	// Output is the data object the stage's pipeline produces.
	Output string `json:"output"`
	// Stage describes the task(s) executed.
	Stage string `json:"stage"`
	// RowsIn is the stage's input cardinality.
	RowsIn int `json:"rows_in"`
	// Rows is the stage's output cardinality.
	Rows int `json:"rows"`
	// DurationUS is the stage's wall time in microseconds.
	DurationUS int64 `json:"duration_us"`
	// QueueWaitUS is the scheduler queue wait in microseconds.
	QueueWaitUS int64 `json:"queue_wait_us"`
	// Path is the execution path that ran the stage: "row" or
	// "columnar" (docs/ENGINE.md).
	Path string `json:"path"`
	// Plan tags the stage with its node's plan summary (the applied
	// rewrite rules, or "as-written"); "" for runs without a cost-based
	// plan.
	Plan string `json:"plan,omitempty"`
	// Sub marks a synthetic record for one task inside a fused
	// row-local run, which binaries before the engine ran one stage per
	// task wrote: its row counts fold into selectivity profiles, its
	// missing duration into no baseline. Nothing writes it now; it is
	// read so older histories recover to the same profiles.
	Sub bool `json:"sub,omitempty"`
	// PushedDown marks a filter whose predicate a connector applied at
	// fetch time, which binaries before the decoder stopped filtering
	// rows wrote: the stage re-filtered already-filtered rows, so its
	// selectivity folds into no profile, its row counts and duration as
	// any record's do. Nothing writes it now; it is read so older
	// histories recover to the same profiles.
	PushedDown bool `json:"pushed_down,omitempty"`
}

// RunRecord is one dashboard run as the flight recorder stores it.
type RunRecord struct {
	// Seq is the recorder-assigned sequence number (monotonic across
	// all dashboards; survives restarts).
	Seq uint64 `json:"seq"`
	// Dashboard is the dashboard name.
	Dashboard string `json:"dashboard"`
	// FlowHash identifies the flow-file revision that ran; profiles and
	// baselines are keyed by it so an edited flow starts fresh.
	FlowHash string `json:"flow_hash"`
	// StartedAt is the run start time.
	StartedAt time.Time `json:"started_at"`
	// DurationUS is the end-to-end run wall time in microseconds.
	DurationUS int64 `json:"duration_us"`
	// Status is ok, degraded or error; the serving layer additionally
	// records "shed" (request rejected by admission control) and
	// "cached" (served from the shared result cache) entries.
	Status string `json:"status"`
	// Error carries the run error for status "error".
	Error string `json:"error,omitempty"`
	// Retries counts source fetch retries across the run.
	Retries int `json:"retries"`
	// OpenBreakers counts circuit breakers not closed when the run
	// ended — sources failing fast or probing half-open.
	OpenBreakers int `json:"open_breakers,omitempty"`
	// DegradedSources lists sources served via their on_error fallback
	// as "name:mode" (docs/RESILIENCE.md).
	DegradedSources []string `json:"degraded_sources,omitempty"`
	// TasksRun counts executed task stages.
	TasksRun int `json:"tasks_run"`
	// CacheHits counts DAG nodes served from the incremental cache.
	CacheHits int `json:"cache_hits"`
	// SkippedSinks counts dead sinks the optimizer eliminated.
	SkippedSinks int `json:"skipped_sinks"`
	// ColumnarFallbacks is always 0: the engine no longer re-runs a stage
	// on the row kernels. The field keeps the journaled record format.
	ColumnarFallbacks int `json:"columnar_fallbacks"`
	// Stages holds every executed stage, sorted by (output, stage).
	Stages []StageRecord `json:"stages"`
	// Deltas is the comparator's verdict for this run against the
	// baselines that existed when it was recorded. Persisted with the
	// run so `history` and ?baseline=1 can explain it after a restart.
	Deltas []StageDelta `json:"deltas,omitempty"`
}

// StageDelta compares one stage of a run against its profile baseline.
type StageDelta struct {
	// Output and Stage identify the stage.
	Output string `json:"output"`
	Stage  string `json:"stage"`
	// Path is the execution path of the compared run's stage.
	Path string `json:"path"`
	// LastUS is this run's stage duration in microseconds.
	LastUS int64 `json:"last_us"`
	// BaselineUS is the EWMA baseline duration before this run.
	BaselineUS int64 `json:"baseline_us"`
	// DeltaPct is (last-baseline)/baseline in percent.
	DeltaPct float64 `json:"delta_pct"`
	// P50US/P99US are the profile's latency quantiles including this
	// run.
	P50US int64 `json:"p50_us"`
	P99US int64 `json:"p99_us"`
	// Samples is how many observations back the baseline.
	Samples int64 `json:"samples"`
	// Regressed marks stages beyond the configured regression
	// threshold with enough samples to trust the baseline.
	Regressed bool `json:"regressed"`
}

// StageProfile aggregates one (flow hash, output, stage) across runs:
// the optimizer-facing statistics of docs/OBSERVABILITY.md.
type StageProfile struct {
	// FlowHash, Output and Stage identify the profiled stage.
	FlowHash string `json:"flow_hash"`
	Output   string `json:"output"`
	Stage    string `json:"stage"`
	// Count is the number of observations.
	Count int64 `json:"count"`
	// EWMAUS is the exponentially weighted moving average duration in
	// microseconds — the regression baseline.
	EWMAUS float64 `json:"ewma_us"`
	// Selectivity is the EWMA of rows out / rows in, folded only from
	// observations with a non-empty input: an empty input says nothing
	// about what fraction a filter keeps, so it must not drag the
	// estimate toward any value. SelSamples counts the observations
	// that did fold; zero means no evidence — the optimizer falls back
	// to static facts or heuristics instead of trusting the zero value.
	Selectivity float64 `json:"selectivity"`
	SelSamples  int64   `json:"sel_samples,omitempty"`
	// RowsIn and Rows are the EWMA input and output cardinalities.
	RowsIn float64 `json:"rows_in,omitempty"`
	Rows   float64 `json:"rows"`
	// LastUS and LastPath describe the newest observation.
	LastUS   int64  `json:"last_us"`
	LastPath string `json:"last_path"`
	// Latency is the streaming quantile sketch over stage durations.
	Latency Sketch `json:"latency"`
}

// observe folds one stage record into the profile. Selectivity folds
// only when the stage saw input rows — an empty run is "no evidence",
// not "keeps everything" — and was not pushed down (older binaries),
// and sub-records (tasks inside a fused run,
// from older binaries) fold row counts but never durations, which
// belonged to the fused stage.
func (p *StageProfile) observe(st StageRecord, alpha float64) {
	if st.RowsIn > 0 && !st.PushedDown {
		sel := float64(st.Rows) / float64(st.RowsIn)
		if p.SelSamples == 0 {
			p.Selectivity = sel
		} else {
			p.Selectivity = alpha*sel + (1-alpha)*p.Selectivity
		}
		p.SelSamples++
	}
	if p.Count == 0 {
		p.RowsIn = float64(st.RowsIn)
		p.Rows = float64(st.Rows)
	} else {
		p.RowsIn = alpha*float64(st.RowsIn) + (1-alpha)*p.RowsIn
		p.Rows = alpha*float64(st.Rows) + (1-alpha)*p.Rows
	}
	if !st.Sub {
		if p.Count == 0 || p.EWMAUS == 0 {
			p.EWMAUS = float64(st.DurationUS)
		} else {
			p.EWMAUS = alpha*float64(st.DurationUS) + (1-alpha)*p.EWMAUS
		}
		p.LastUS = st.DurationUS
		p.LastPath = st.Path
		p.Latency.Observe(st.DurationUS)
	}
	p.Count++
}

// Options configures a Recorder. The zero value takes every default.
type Options struct {
	// RingSize caps the runs kept per dashboard (default 64). Older
	// runs age out of the ring; their observations stay folded into
	// the profiles.
	RingSize int
	// EWMAAlpha weights the newest observation in the baselines
	// (default 0.3).
	EWMAAlpha float64
	// RegressFactor flags a stage as regressed when its duration
	// exceeds baseline × factor (default 1.5).
	RegressFactor float64
	// MinSamples is the observation count a baseline needs before the
	// comparator will flag regressions against it (default 3).
	MinSamples int
	// MinDurationUS ignores regressions on stages faster than this
	// floor — sub-millisecond stages jitter too much to alert on
	// (default 500µs).
	MinDurationUS int64
	// CompactBytes / CompactRecords trigger a snapshot once the WAL
	// reaches either threshold (defaults 1 MiB / 512 records).
	CompactBytes   int
	CompactRecords int
	// Metrics receives si_stage_regressions_total and rides into the
	// store layer's si_store_* series (optional).
	Metrics *obs.Registry
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.RingSize <= 0 {
		o.RingSize = 64
	}
	if o.EWMAAlpha <= 0 || o.EWMAAlpha > 1 {
		o.EWMAAlpha = 0.3
	}
	if o.RegressFactor <= 1 {
		o.RegressFactor = 1.5
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 3
	}
	if o.MinDurationUS <= 0 {
		o.MinDurationUS = 500
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// profKey identifies one profiled stage.
type profKey struct{ flow, output, stage string }

// recRun is the WAL record type for one appended run.
const recRun byte = 1

// defaultCompact is the history component's compaction threshold: runs
// are small and frequent, so it rotates sooner than the persist
// components.
var defaultCompact = store.CompactLimit{Bytes: 1 << 20, Records: 512}

// Recorder is the flight recorder: per-dashboard run rings plus
// per-stage profiles, optionally journaled through a store.Component.
type Recorder struct {
	opts Options
	comp *store.Component // nil = memory only; set once, by Open

	mu       sync.Mutex
	seq      uint64
	runs     map[string][]*RunRecord
	profiles map[profKey]*StageProfile
}

// NewRecorder builds a memory-only recorder (no persistence): the
// default for CLI one-shots and servers without -data-dir.
func NewRecorder(opts Options) *Recorder {
	return &Recorder{
		opts:     opts.withDefaults(),
		runs:     map[string][]*RunRecord{},
		profiles: map[profKey]*StageProfile{},
	}
}

// Open opens (creating if needed) a durable recorder at path
// "history" under fs and replays its snapshot + WAL: the recovered
// rings and profiles equal exactly the acknowledged prefix of Record
// calls. Use the same fs root as the persist store so history sits
// beside the vcs/catalog/cache components.
func Open(fs store.FS, opts Options) (*Recorder, error) {
	r := NewRecorder(opts)
	limit := store.CompactLimit{Bytes: r.opts.CompactBytes, Records: r.opts.CompactRecords}.OrDefault(defaultCompact)
	comp, err := store.OpenComponent(fs, "history", "history", (*journalState)(r), limit, r.opts.Now, r.opts.Metrics)
	if err != nil {
		return nil, err
	}
	r.comp = comp
	return r, nil
}

// applyLocked installs one run into the rings and profiles — the
// single mutation path shared by Record and recovery replay.
func (r *Recorder) applyLocked(run *RunRecord) {
	if run.Seq > r.seq {
		r.seq = run.Seq
	}
	ring := append(r.runs[run.Dashboard], run)
	if n := len(ring) - r.opts.RingSize; n > 0 {
		ring = append(ring[:0], ring[n:]...)
	}
	r.runs[run.Dashboard] = ring
	for _, st := range run.Stages {
		k := profKey{run.FlowHash, st.Output, st.Stage}
		p := r.profiles[k]
		if p == nil {
			p = &StageProfile{FlowHash: run.FlowHash, Output: st.Output, Stage: st.Stage}
			r.profiles[k] = p
		}
		p.observe(st, r.opts.EWMAAlpha)
	}
}

// compareLocked evaluates a run's stages against the current profiles
// (before the run is folded in) — the per-stage baseline deltas.
func (r *Recorder) compareLocked(run *RunRecord) []StageDelta {
	var out []StageDelta
	for _, st := range run.Stages {
		if st.Sub {
			// Sub-records carry no duration; comparing them against a
			// baseline would only emit zero-valued noise.
			continue
		}
		p := r.profiles[profKey{run.FlowHash, st.Output, st.Stage}]
		if p == nil || p.Count == 0 {
			continue
		}
		base := int64(p.EWMAUS + 0.5)
		d := StageDelta{
			Output: st.Output, Stage: st.Stage, Path: st.Path,
			LastUS: st.DurationUS, BaselineUS: base, Samples: p.Count,
		}
		if base > 0 {
			d.DeltaPct = 100 * float64(st.DurationUS-base) / float64(base)
		}
		d.Regressed = p.EWMAUS > 0 &&
			p.Count >= int64(r.opts.MinSamples) &&
			st.DurationUS >= r.opts.MinDurationUS &&
			float64(st.DurationUS) > p.EWMAUS*r.opts.RegressFactor
		out = append(out, d)
	}
	return out
}

// Record captures one run: sequence it, compare it against the
// baselines, fold it into rings and profiles, and (when durable)
// append it to the WAL before returning. The returned deltas are the
// comparator's verdicts. On append failure the run still lands in
// memory — observability stays available while durability degrades —
// and the error reports the unacknowledged write.
func (r *Recorder) Record(run *RunRecord) ([]StageDelta, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	run.Seq = r.seq
	if run.StartedAt.IsZero() {
		run.StartedAt = r.opts.Now()
	}
	sort.Slice(run.Stages, func(i, j int) bool {
		a, b := run.Stages[i], run.Stages[j]
		if a.Output != b.Output {
			return a.Output < b.Output
		}
		return a.Stage < b.Stage
	})
	run.Deltas = r.compareLocked(run)
	if r.comp == nil {
		r.foldLocked(run)
		return run.Deltas, nil
	}
	payload, err := json.Marshal(run)
	if err == nil {
		err = r.comp.Journal(store.Record{Type: recRun, Payload: payload}, func() error {
			r.foldLocked(run)
			return nil
		})
	}
	if err != nil {
		r.foldLocked(run) // unacknowledged, but observability outlives durability
	}
	return run.Deltas, err
}

// foldLocked installs a just-judged run and completes its deltas: the
// quantiles include this run (the profile just absorbed it); the
// baselines do not.
func (r *Recorder) foldLocked(run *RunRecord) {
	r.applyLocked(run)
	for i := range run.Deltas {
		d := &run.Deltas[i]
		if p := r.profiles[profKey{run.FlowHash, d.Output, d.Stage}]; p != nil {
			d.P50US = int64(p.Latency.Quantile(0.50) + 0.5)
			d.P99US = int64(p.Latency.Quantile(0.99) + 0.5)
		}
		if d.Regressed && r.opts.Metrics != nil {
			r.opts.Metrics.CounterVec("si_stage_regressions_total",
				"Stages flagged as regressed against their EWMA baseline, by dashboard and output.",
				"dashboard", "output").With(run.Dashboard, d.Output).Inc()
		}
	}
}

// snapshot is the full-state payload written at compaction: the rings
// and profiles as of the covered WAL prefix.
type snapshot struct {
	Seq      uint64          `json:"seq"`
	Runs     []*RunRecord    `json:"runs"`
	Profiles []*StageProfile `json:"profiles"`
}

func (r *Recorder) snapshotLocked() snapshot {
	snap := snapshot{Seq: r.seq}
	dashes := make([]string, 0, len(r.runs))
	for d := range r.runs {
		dashes = append(dashes, d)
	}
	sort.Strings(dashes)
	for _, d := range dashes {
		snap.Runs = append(snap.Runs, r.runs[d]...)
	}
	keys := make([]profKey, 0, len(r.profiles))
	for k := range r.profiles {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.flow != b.flow {
			return a.flow < b.flow
		}
		if a.output != b.output {
			return a.output < b.output
		}
		return a.stage < b.stage
	})
	for _, k := range keys {
		snap.Profiles = append(snap.Profiles, r.profiles[k])
	}
	return snap
}

// Runs returns the newest-first run records for a dashboard, at most
// limit (0 = the whole ring). The records are copies.
func (r *Recorder) Runs(dash string, limit int) []RunRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	ring := r.runs[dash]
	n := len(ring)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]RunRecord, 0, n)
	for i := len(ring) - 1; i >= len(ring)-n; i-- {
		out = append(out, *ring[i])
	}
	return out
}

// LastRun returns a dashboard's newest recorded run.
func (r *Recorder) LastRun(dash string) (RunRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ring := r.runs[dash]
	if len(ring) == 0 {
		return RunRecord{}, false
	}
	return *ring[len(ring)-1], true
}

// Profiles returns the stage profiles for one flow hash, sorted by
// (output, stage). The profiles are copies.
func (r *Recorder) Profiles(flowHash string) []StageProfile {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []StageProfile
	for k, p := range r.profiles {
		if k.flow == flowHash {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Output != out[j].Output {
			return out[i].Output < out[j].Output
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// Profile returns one stage's profile for a flow hash, looked up by key:
// the planner's evidence, read once per stage it plans.
func (r *Recorder) Profile(flowHash, output, stage string) (StageProfile, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.profiles[profKey{flowHash, output, stage}]; p != nil {
		return *p, true
	}
	return StageProfile{}, false
}

// Component exposes the durable component — recovery report, WAL status
// and the directory WAL shipping reads (nil for memory-only recorders).
func (r *Recorder) Component() *store.Component { return r.comp }

// Close fsyncs and closes the durable directory (no-op for memory-only
// recorders).
func (r *Recorder) Close() error {
	if r.comp == nil {
		return nil
	}
	return r.comp.Close()
}
