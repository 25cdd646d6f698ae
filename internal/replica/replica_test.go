package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shareinsights/internal/dashboard"
	"shareinsights/internal/obs"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/resilience"
	"shareinsights/internal/schema"
	"shareinsights/internal/store"
	"shareinsights/internal/store/persist"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
	"shareinsights/internal/vcs"
)

func fixedClock() func() time.Time {
	at := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time { at = at.Add(time.Second); return at }
}

func sampleTable(n int) *table.Table {
	t := table.New(schema.MustFromNames("k", "v"))
	for i := 0; i < n; i++ {
		t.AppendValues(value.NewInt(int64(i)), value.NewString(fmt.Sprintf("row-%d", i)))
	}
	return t
}

// noRetry is a policy that makes exactly one attempt with no sleeping —
// failures surface immediately so tests control the retry loop.
var noRetry = resilience.Policy{MaxRetries: 0, BaseDelay: time.Nanosecond,
	Sleep: func(context.Context, time.Duration) error { return nil }}

// fastRetry retries twice with no real sleeping.
var fastRetry = resilience.Policy{MaxRetries: 2, BaseDelay: time.Nanosecond,
	Sleep: func(context.Context, time.Duration) error { return nil }}

// leaderEnv is a journaling leader with its shipping endpoints mounted
// on a loopback server — the minimal leader a follower needs.
type leaderEnv struct {
	fs   store.FS
	st   *persist.Store
	p    *dashboard.Platform
	repo *vcs.Repo
	ts   *httptest.Server
	i    int
}

func leaderHandler(st *persist.Store) http.Handler {
	l := NewLeader(st)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /replica/status", l.ServeStatus)
	mux.HandleFunc("GET /replica/wal/{component}", l.ServeWAL)
	mux.HandleFunc("GET /replica/bootstrap/{component}", l.ServeBootstrap)
	return mux
}

func newLeaderEnv(t *testing.T, fs store.FS, opts persist.Options) *leaderEnv {
	t.Helper()
	if opts.Now == nil {
		opts.Now = fixedClock()
	}
	st, err := persist.Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := dashboard.NewPlatform()
	if err := st.WirePlatform(p); err != nil {
		t.Fatal(err)
	}
	repo := st.Repos()["alpha"]
	if repo == nil {
		repo = vcs.NewRepo("alpha")
		repo.SetClock(fixedClock())
		if err := st.AdoptRepo(repo); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(leaderHandler(st))
	t.Cleanup(ts.Close)
	return &leaderEnv{fs: fs, st: st, p: p, repo: repo, ts: ts}
}

// mutate drives one round of mutations across all four components.
func (e *leaderEnv) mutate(t *testing.T) {
	t.Helper()
	e.i++
	if _, err := e.repo.Commit(vcs.DefaultBranch, "ann", fmt.Sprintf("c%d", e.i), []byte(fmt.Sprintf("flow v%d", e.i))); err != nil {
		t.Fatal(err)
	}
	if _, err := e.p.Catalog.Publish("alpha", "sales", sampleTable(e.i)); err != nil {
		t.Fatal(err)
	}
	e.p.LastGood.Put("alpha", "raw", sampleTable(e.i+1))
	if _, err := e.p.History.Record(&history.RunRecord{
		Dashboard: "alpha", FlowHash: "h1", Status: "ok",
		StartedAt: time.Date(2015, 6, 1, 0, 0, e.i, 0, time.UTC),
	}); err != nil {
		t.Fatal(err)
	}
}

// assertReplicated is the acked-prefix-equality invariant: the
// follower's components equal the leader's live (= acknowledged) state.
func assertReplicated(t *testing.T, name string, lst *persist.Store, lp *dashboard.Platform, comps *persist.Components) {
	t.Helper()
	lrepos, frepos := lst.Repos(), comps.Repos()
	if len(lrepos) != len(frepos) {
		t.Fatalf("%s: repo sets differ: leader %d, follower %d", name, len(lrepos), len(frepos))
	}
	for n, lr := range lrepos {
		fr := frepos[n]
		if fr == nil || !fr.Equal(lr) {
			t.Fatalf("%s: repo %q not replicated", name, n)
		}
	}
	lobjs, fcat := lp.Catalog.Objects(), comps.Catalog()
	if got, want := len(fcat.Names()), len(lobjs); got != want {
		t.Fatalf("%s: catalog size: follower %d, leader %d", name, got, want)
	}
	for _, lo := range lobjs {
		fo, ok := fcat.Resolve(lo.Name)
		if !ok || fo.Version != lo.Version || fo.Dashboard != lo.Dashboard ||
			fo.Data.Fingerprint() != lo.Data.Fingerprint() {
			t.Fatalf("%s: object %q not replicated (ok=%v)", name, lo.Name, ok)
		}
	}
	lp.LastGood.Each(func(dash, src string, tb *table.Table) {
		got, ok := comps.Cache().Lookup(dash, src)
		if !ok || !got.Equal(tb) {
			t.Fatalf("%s: cache entry %s/%s not replicated", name, dash, src)
		}
	})
	if got, want := comps.History().Seq(), lp.History.Seq(); got != want {
		t.Fatalf("%s: history seq: follower %d, leader %d", name, got, want)
	}
}

// TestFollowerCatchUpEquality is the round trip: a fresh follower
// bootstraps and streams to equality, then tracks further mutations
// incrementally (no re-bootstrap).
func TestFollowerCatchUpEquality(t *testing.T) {
	e := newLeaderEnv(t, store.NewMemFS(), persist.Options{})
	for i := 0; i < 5; i++ {
		e.mutate(t)
	}
	f, err := New(Config{LeaderURL: e.ts.URL, Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	assertReplicated(t, "initial", e.st, e.p, f.Components())
	st := f.Status()
	if st.CaughtUpAt.IsZero() || st.Breaker != "closed" || st.AppliedSeq != e.p.History.Seq() {
		t.Fatalf("status after catch-up: %+v", st)
	}
	bootstraps := st.Components["vcs"].Bootstraps

	for i := 0; i < 3; i++ {
		e.mutate(t)
	}
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	assertReplicated(t, "incremental", e.st, e.p, f.Components())
	if got := f.Status().Components["vcs"].Bootstraps; got != bootstraps {
		t.Fatalf("incremental sync re-bootstrapped: %d -> %d", bootstraps, got)
	}
	// Follower cursors match the leader's committed cursors exactly.
	for _, name := range persist.ComponentNames {
		if got, want := f.Status().Components[name].Cursor, e.st.Dir(name).Cursor(); got != want {
			t.Fatalf("%s cursor: follower %+v, leader %+v", name, got, want)
		}
	}
}

// TestFollowerRestartResumesFromDurableCursor pins the durable-cursor
// contract: a restarted follower over the same FS replays its replica
// WAL, resumes from the stored cursor (no re-bootstrap) and does not
// double-apply anything.
func TestFollowerRestartResumesFromDurableCursor(t *testing.T) {
	e := newLeaderEnv(t, store.NewMemFS(), persist.Options{})
	for i := 0; i < 4; i++ {
		e.mutate(t)
	}
	ffs := store.NewMemFS()
	f, err := New(Config{LeaderURL: e.ts.URL, FS: ffs, Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	assertReplicated(t, "first life", e.st, e.p, f.Components())
	cursor := f.Status().Components["vcs"].Cursor
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The leader moves on while the follower is down.
	for i := 0; i < 3; i++ {
		e.mutate(t)
	}

	f2, err := New(Config{LeaderURL: e.ts.URL, FS: ffs, Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	// Before contacting the leader the replica already holds its durably
	// acknowledged state and cursor.
	if got := f2.Status().Components["vcs"].Cursor; got != cursor {
		t.Fatalf("cursor not recovered: %+v vs %+v", got, cursor)
	}
	if f2.Components().Repos()["alpha"] == nil {
		t.Fatal("replicated repo lost across restart")
	}
	if err := f2.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	assertReplicated(t, "second life", e.st, e.p, f2.Components())
	if got := f2.Status().Components["vcs"].Bootstraps; got != 0 {
		t.Fatalf("restart re-bootstrapped instead of resuming (%d bootstraps)", got)
	}
}

// TestFollowerRebootstrapsAfterCompaction covers the snapshot-bootstrap
// race under -race: the leader compacts aggressively while a mutator
// goroutine keeps appending, and a lagging follower must re-bootstrap
// (410 Gone) mid-stream — repeatedly — and still converge to equality.
func TestFollowerRebootstrapsAfterCompaction(t *testing.T) {
	e := newLeaderEnv(t, store.NewMemFS(), persist.Options{CompactRecords: 2})
	e.mutate(t)
	f, err := New(Config{LeaderURL: e.ts.URL, Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			e.mutate(t)
		}
	}()
	for {
		f.Sync(ctx) // may race a compaction; later rounds converge
		select {
		case <-done:
			if err := f.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			assertReplicated(t, "post-compaction", e.st, e.p, f.Components())
			if got := f.Status().Components["vcs"].Bootstraps; got < 2 {
				t.Fatalf("compaction never forced a re-bootstrap (%d)", got)
			}
			return
		default:
		}
	}
}

// flakyTransport drops every Nth request at the transport layer — the
// partition injector.
type flakyTransport struct {
	inner http.RoundTripper
	n     atomic.Int64
	every int64
	off   atomic.Bool
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !f.off.Load() && f.n.Add(1)%f.every == 0 {
		return nil, errors.New("partition: connection reset")
	}
	return f.inner.RoundTrip(r)
}

// TestFollowerPartitionMidCatchUp interrupts the catch-up stream with
// transport failures: some components land, others do not, and repeated
// rounds converge with nothing applied twice.
func TestFollowerPartitionMidCatchUp(t *testing.T) {
	e := newLeaderEnv(t, store.NewMemFS(), persist.Options{})
	for i := 0; i < 6; i++ {
		e.mutate(t)
	}
	tr := &flakyTransport{inner: http.DefaultTransport, every: 3}
	f, err := New(Config{
		LeaderURL: e.ts.URL,
		Client:    &http.Client{Transport: tr},
		Retry:     noRetry, // failures surface instead of being absorbed
		Breaker:   resilience.BreakerConfig{FailureThreshold: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	var failed, ok int
	for ok == 0 && failed+ok < 200 {
		if err := f.Sync(ctx); err != nil {
			failed++
		} else {
			ok++
		}
	}
	if failed == 0 {
		t.Fatal("partition never interrupted a sync; test is vacuous")
	}
	if ok == 0 {
		t.Fatal("no sync round ever completed through the partition")
	}
	tr.off.Store(true)
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	assertReplicated(t, "post-partition", e.st, e.p, f.Components())
}

// TestBreakerInterplay is the satellite-2 scenario: a leader that only
// sheds (repeated 5xx) trips the follower's breaker; the follower keeps
// serving its last-applied state, reports degraded, increments
// si_breaker_transitions_total, and the pull loop survives both the
// shedding and an injected panic. After the leader heals and the
// breaker's open window passes, replication resumes.
func TestBreakerInterplay(t *testing.T) {
	e := newLeaderEnv(t, store.NewMemFS(), persist.Options{})
	for i := 0; i < 3; i++ {
		e.mutate(t)
	}
	var shed atomic.Bool
	var panics atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if shed.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		leaderHandler(e.st).ServeHTTP(w, r)
	}))
	defer front.Close()

	clock := fixedClock()
	var now atomic.Value
	now.Store(clock())
	met := obs.NewRegistry()
	f, err := New(Config{
		LeaderURL: front.URL,
		Retry:     noRetry,
		Breaker: resilience.BreakerConfig{
			FailureThreshold: 3,
			OpenFor:          10 * time.Second,
			OnTransition: func(from, to resilience.State) {
				if panics.Add(1) == 1 {
					panic("transition hook exploded")
				}
			},
		},
		Metrics: met,
		Now:     func() time.Time { return now.Load().(time.Time) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	assertReplicated(t, "pre-shed", e.st, e.p, f.Components())

	// The leader starts shedding every request; run the real pull loop.
	// The first breaker transition panics (injected); the loop must keep
	// going, trip the breaker at the threshold, then fail fast.
	shed.Store(true)
	rctx, cancel := context.WithCancel(ctx)
	loopDone := make(chan struct{})
	go func() { defer close(loopDone); f.Run(rctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for f.Breaker().State() != resilience.Open {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened under sustained shedding")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-loopDone
	if panics.Load() == 0 {
		t.Fatal("panic injection never fired; loop-survival not exercised")
	}
	if !f.Degraded() {
		t.Fatal("follower not degraded with breaker open")
	}
	// Fail-fast while open: Sync returns ErrOpen without touching the
	// leader.
	if err := f.Sync(ctx); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("sync with open breaker: %v", err)
	}
	// The follower still serves everything it had.
	assertReplicated(t, "while degraded", e.st, e.p, f.Components())
	var buf strings.Builder
	met.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `si_breaker_transitions_total{protocol="replica",to="open"} 1`) {
		t.Fatalf("breaker transition not recorded:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "si_replication_breaker_state 1") {
		t.Fatalf("breaker-state gauge not 1 (open):\n%s", buf.String())
	}

	// Leader heals; after the open window the half-open probe succeeds
	// and replication resumes.
	shed.Store(false)
	e.mutate(t)
	now.Store(now.Load().(time.Time).Add(11 * time.Second))
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if f.Breaker().State() != resilience.Closed || f.Degraded() {
		t.Fatalf("breaker did not close after recovery: %v", f.Breaker().State())
	}
	assertReplicated(t, "post-recovery", e.st, e.p, f.Components())
	buf.Reset()
	met.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `si_replication_frames_applied_total{component="vcs"}`) {
		t.Fatalf("frames-applied metric missing:\n%s", buf.String())
	}
}

// TestFollowerSmallBatchesReachEquality pins the max= frame-boundary
// rule end to end: with MaxBatchBytes smaller than any single frame and
// far smaller than the backlog, a follower that fell behind still pulls
// to cursor equality incrementally — no torn batch, no retry loop, no
// re-bootstrap.
func TestFollowerSmallBatchesReachEquality(t *testing.T) {
	e := newLeaderEnv(t, store.NewMemFS(), persist.Options{})
	e.mutate(t)
	f, err := New(Config{LeaderURL: e.ts.URL, FS: store.NewMemFS(), Retry: noRetry, MaxBatchBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		e.mutate(t)
	}
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	assertReplicated(t, "small batches", e.st, e.p, f.Components())
	for _, name := range persist.ComponentNames {
		got := f.Status().Components[name]
		if want := e.st.Dir(name).Cursor(); got.Cursor != want {
			t.Fatalf("%s cursor: follower %+v, leader %+v", name, got.Cursor, want)
		}
		if got.Bootstraps != 1 {
			t.Fatalf("%s: %d bootstraps, want the initial one only", name, got.Bootstraps)
		}
	}
}
