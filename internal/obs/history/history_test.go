package history

import (
	"math"
	"testing"
	"time"

	"shareinsights/internal/store"
)

func fixedClock() func() time.Time {
	t := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

// stageRun builds a one-stage run for dashboard dash with the given
// stage duration.
func stageRun(dash, flow string, durUS int64) *RunRecord {
	return &RunRecord{
		Dashboard: dash, FlowHash: flow, Status: "ok", DurationUS: durUS + 10,
		Stages: []StageRecord{
			{Output: "sales", Stage: "groupby region", RowsIn: 100, Rows: 10, DurationUS: durUS, Path: "row"},
		},
	}
}

func TestSketchQuantiles(t *testing.T) {
	var s Sketch
	for i := 0; i < 1000; i++ {
		s.Observe(1000) // 1ms
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := s.Quantile(q)
		if got < 800 || got > 1250 {
			t.Fatalf("Quantile(%v) = %v, want within ~20%% of 1000", q, got)
		}
	}
	// A bimodal stream separates the quantiles.
	var b Sketch
	for i := 0; i < 99; i++ {
		b.Observe(1000)
	}
	b.Observe(100000) // one 100ms outlier
	p50, p99 := b.Quantile(0.5), b.Quantile(0.999)
	if p50 > 2000 {
		t.Fatalf("p50 = %v, want near 1000", p50)
	}
	if p99 < 50000 {
		t.Fatalf("p99.9 = %v, want near 100000", p99)
	}
	// Quantiles are monotone in q.
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		v := b.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone: q=%v -> %v < %v", q, v, prev)
		}
		prev = v
	}
	if (&Sketch{}).Quantile(0.5) != 0 {
		t.Fatal("empty sketch should report 0")
	}
}

func TestSketchClamp(t *testing.T) {
	var a Sketch
	a.Observe(0)       // below 1µs clamps into the first bucket
	a.Observe(1 << 40) // beyond the top clamps into the last
	a.Observe(1000)
	if a.N != 3 {
		t.Fatalf("N = %d, want 3", a.N)
	}
	if a.Counts[0] != 1 || a.Counts[sketchBuckets-1] != 1 {
		t.Fatal("clamped observations missing from edge buckets")
	}
}

func TestRecordRingAndSeq(t *testing.T) {
	r := NewRecorder(Options{RingSize: 4, Now: fixedClock()})
	for i := 0; i < 10; i++ {
		if _, err := r.Record(stageRun("alpha", "f1", 1000)); err != nil {
			t.Fatal(err)
		}
	}
	runs := r.Runs("alpha", 0)
	if len(runs) != 4 {
		t.Fatalf("ring holds %d runs, want 4", len(runs))
	}
	for i, run := range runs { // newest first: seq 10, 9, 8, 7
		if want := uint64(10 - i); run.Seq != want {
			t.Fatalf("runs[%d].Seq = %d, want %d", i, run.Seq, want)
		}
	}
	if got := r.Runs("alpha", 2); len(got) != 2 || got[0].Seq != 10 {
		t.Fatalf("limit=2 returned %+v", got)
	}
	last, ok := r.LastRun("alpha")
	if !ok || last.Seq != 10 {
		t.Fatalf("LastRun = %+v, %v", last, ok)
	}
	if _, ok := r.LastRun("ghost"); ok {
		t.Fatal("LastRun for unknown dashboard")
	}
}

func TestProfilesFoldSelectivityAndEWMA(t *testing.T) {
	r := NewRecorder(Options{EWMAAlpha: 0.5, Now: fixedClock()})
	r.Record(stageRun("alpha", "f1", 1000))
	r.Record(stageRun("alpha", "f1", 2000))
	ps := r.Profiles("f1")
	if len(ps) != 1 {
		t.Fatalf("profiles = %+v", ps)
	}
	p := ps[0]
	if p.Count != 2 || p.Output != "sales" {
		t.Fatalf("profile = %+v", p)
	}
	// First observation seeds the EWMA; the second folds at alpha=0.5.
	if want := 0.5*2000 + 0.5*1000; math.Abs(p.EWMAUS-want) > 1e-9 {
		t.Fatalf("EWMAUS = %v, want %v", p.EWMAUS, want)
	}
	if math.Abs(p.Selectivity-0.1) > 1e-9 {
		t.Fatalf("Selectivity = %v, want 0.1", p.Selectivity)
	}
	if p.LastUS != 2000 || p.LastPath != "row" {
		t.Fatalf("last observation = %d %s", p.LastUS, p.LastPath)
	}
	// A different flow hash starts fresh profiles.
	r.Record(stageRun("alpha", "f2", 9000))
	if ps := r.Profiles("f2"); len(ps) != 1 || ps[0].Count != 1 {
		t.Fatalf("f2 profiles = %+v", ps)
	}
	if ps := r.Profiles("f1"); ps[0].Count != 2 {
		t.Fatal("f1 profiles polluted by f2 run")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	r := NewRecorder(Options{MinSamples: 3, RegressFactor: 1.5, MinDurationUS: 500, Now: fixedClock()})
	// First run: no baseline yet, no deltas.
	deltas, _ := r.Record(stageRun("alpha", "f1", 1000))
	if len(deltas) != 0 {
		t.Fatalf("first run produced deltas: %+v", deltas)
	}
	// Second run: baseline exists but MinSamples not reached — compared,
	// never flagged.
	deltas, _ = r.Record(stageRun("alpha", "f1", 5000))
	if len(deltas) != 1 || deltas[0].Regressed {
		t.Fatalf("under-sampled run flagged: %+v", deltas)
	}
	if deltas[0].BaselineUS != 1000 {
		t.Fatalf("baseline = %d, want 1000", deltas[0].BaselineUS)
	}
	r.Record(stageRun("alpha", "f1", 1000))
	// Fourth run at 10x the baseline with 3 samples behind it: regressed.
	deltas, _ = r.Record(stageRun("alpha", "f1", 20000))
	if len(deltas) != 1 || !deltas[0].Regressed {
		t.Fatalf("regression not flagged: %+v", deltas)
	}
	d := deltas[0]
	if d.DeltaPct < 100 {
		t.Fatalf("DeltaPct = %v, want large positive", d.DeltaPct)
	}
	if d.Samples != 3 || d.P50US == 0 || d.P99US == 0 {
		t.Fatalf("delta detail = %+v", d)
	}
	// The run record keeps its deltas for later queries.
	last, _ := r.LastRun("alpha")
	if len(last.Deltas) != 1 || !last.Deltas[0].Regressed {
		t.Fatalf("persisted deltas = %+v", last.Deltas)
	}
}

func TestCompareIgnoresFastStages(t *testing.T) {
	r := NewRecorder(Options{MinSamples: 1, MinDurationUS: 500, Now: fixedClock()})
	r.Record(stageRun("alpha", "f1", 10))
	deltas, _ := r.Record(stageRun("alpha", "f1", 400)) // 40x but under the floor
	if len(deltas) != 1 || deltas[0].Regressed {
		t.Fatalf("sub-floor stage flagged: %+v", deltas)
	}
}

func TestDurableRoundTrip(t *testing.T) {
	fs := store.NewMemFS()
	r, err := Open(fs, Options{Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if _, err := r.Record(stageRun("alpha", "f1", 1000+100*i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Record(stageRun("beta", "f9", 3000))
	want := r.Runs("alpha", 0)
	wantProfiles := r.Profiles("f1")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(fs, Options{Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	rec := r2.Component().Recovery()
	if rec == nil || rec.RecordCount != 6 {
		t.Fatalf("recovery = %+v", rec)
	}
	got := r2.Runs("alpha", 0)
	if len(got) != len(want) {
		t.Fatalf("recovered %d runs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq || got[i].Stages[0].DurationUS != want[i].Stages[0].DurationUS {
			t.Fatalf("recovered run %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	gotProfiles := r2.Profiles("f1")
	if len(gotProfiles) != 1 || gotProfiles[0].Count != wantProfiles[0].Count ||
		math.Abs(gotProfiles[0].EWMAUS-wantProfiles[0].EWMAUS) > 1e-9 {
		t.Fatalf("recovered profiles = %+v, want %+v", gotProfiles, wantProfiles)
	}
	// The sequence continues where it left off.
	if _, err := r2.Record(stageRun("alpha", "f1", 1700)); err != nil {
		t.Fatal(err)
	}
	if last, _ := r2.LastRun("alpha"); last.Seq != 7 {
		t.Fatalf("post-recovery seq = %d, want 7", last.Seq)
	}
}

func TestSnapshotRotationBoundsWAL(t *testing.T) {
	fs := store.NewMemFS()
	r, err := Open(fs, Options{CompactRecords: 3, Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if _, err := r.Record(stageRun("alpha", "f1", 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Component().Status()
	if st.Damaged != "" {
		t.Fatal(st.Damaged)
	}
	if n := st.WALRecords; n >= 10 {
		t.Fatalf("WAL holds %d records after compaction threshold 3", n)
	}
	want := r.Runs("alpha", 0)
	r.Close()

	r2, err := Open(fs, Options{CompactRecords: 3, Now: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Component().Recovery().SnapshotBytes == 0 {
		t.Fatal("reopen found no snapshot after rotation")
	}
	got := r2.Runs("alpha", 0)
	if len(got) != len(want) {
		t.Fatalf("recovered %d runs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("recovered seq %d, want %d", got[i].Seq, want[i].Seq)
		}
	}
}

func TestMemoryOnlyRecorder(t *testing.T) {
	r := NewRecorder(Options{})
	if _, err := r.Record(stageRun("alpha", "f1", 1000)); err != nil {
		t.Fatal(err)
	}
	if r.Component() != nil {
		t.Fatal("memory recorder reports a durable component (recovery, WAL status)")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyRunNoSelectivityEvidence pins the satellite fix: a stage
// that ran on an empty input (RowsIn=0, Rows=0) must not create
// selectivity evidence. Before the fix, 0/0 read as "keeps everything"
// (selectivity 1) and a dashboard's empty first run poisoned filter
// reordering for every run after it.
func TestEmptyRunNoSelectivityEvidence(t *testing.T) {
	r := NewRecorder(Options{Now: fixedClock()})
	empty := &RunRecord{
		Dashboard: "alpha", FlowHash: "f1", Status: "ok",
		Stages: []StageRecord{
			{Output: "sales", Stage: "filter_by amount > 0", RowsIn: 0, Rows: 0, DurationUS: 100, Path: "row"},
		},
	}
	if _, err := r.Record(empty); err != nil {
		t.Fatal(err)
	}
	profs := r.Profiles("f1")
	if len(profs) != 1 {
		t.Fatalf("profiles = %+v, want 1", profs)
	}
	p := profs[0]
	if p.SelSamples != 0 {
		t.Fatalf("empty run produced %d selectivity samples, want 0", p.SelSamples)
	}
	if p.Count != 1 {
		t.Fatalf("Count = %d, want 1 (the run still counts)", p.Count)
	}
	// The first real observation initializes Selectivity fresh — it is
	// not an EWMA fold against the poisoned value.
	full := &RunRecord{
		Dashboard: "alpha", FlowHash: "f1", Status: "ok",
		Stages: []StageRecord{
			{Output: "sales", Stage: "filter_by amount > 0", RowsIn: 1000, Rows: 50, DurationUS: 100, Path: "row"},
		},
	}
	if _, err := r.Record(full); err != nil {
		t.Fatal(err)
	}
	p = r.Profiles("f1")[0]
	if p.SelSamples != 1 {
		t.Fatalf("SelSamples = %d, want 1", p.SelSamples)
	}
	if math.Abs(p.Selectivity-0.05) > 1e-9 {
		t.Fatalf("Selectivity = %v, want exactly 0.05 (fresh init, no fold)", p.Selectivity)
	}
}

// TestSubRecordsFeedSelectivityNotLatency pins the fused-run contract:
// a Sub stage record folds row counts into the selectivity profile but
// never touches duration baselines, latency sketches, or the
// regression comparator.
func TestSubRecordsFeedSelectivityNotLatency(t *testing.T) {
	r := NewRecorder(Options{MinSamples: 1, MinDurationUS: 1, Now: fixedClock()})
	run := func() *RunRecord {
		return &RunRecord{
			Dashboard: "alpha", FlowHash: "f1", Status: "ok",
			Stages: []StageRecord{
				{Output: "sales", Stage: "filter_by amount > 0", RowsIn: 1000, Rows: 100, Sub: true, Path: "row"},
			},
		}
	}
	if _, err := r.Record(run()); err != nil {
		t.Fatal(err)
	}
	p := r.Profiles("f1")[0]
	if p.SelSamples != 1 || math.Abs(p.Selectivity-0.1) > 1e-9 {
		t.Fatalf("sub record did not feed selectivity: %+v", p)
	}
	if p.EWMAUS != 0 || p.LastUS != 0 || p.Latency.N != 0 {
		t.Fatalf("sub record touched latency baselines: %+v", p)
	}
	// The comparator skips sub records entirely: no deltas, and a later
	// slow fused stage never reads a zero baseline as regressed.
	deltas, err := r.Record(run())
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 0 {
		t.Fatalf("sub records produced deltas: %+v", deltas)
	}
}
