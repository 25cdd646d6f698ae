package replica

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"shareinsights/internal/obs"
	"shareinsights/internal/resilience"
	"shareinsights/internal/store"
	"shareinsights/internal/store/persist"
)

// Config configures a Follower.
type Config struct {
	// LeaderURL is the leader's base URL (no trailing slash needed).
	LeaderURL string
	// Client issues the pull requests (nil = http.DefaultClient).
	Client *http.Client
	// FS is the follower's durable home for its replica WALs — the
	// cursor survives restarts through it. nil runs memory-only: every
	// restart re-bootstraps.
	FS store.FS
	// Retry wraps each leader request (zero value = resilience.Defaults).
	Retry resilience.Policy
	// Breaker guards the whole pull loop: a flapping leader degrades
	// the follower to serving last-applied state instead of hot-looping.
	Breaker resilience.BreakerConfig
	// PollInterval is the Run loop cadence (default 500ms).
	PollInterval time.Duration
	// MaxBatchBytes caps one WAL fetch (default 1 MiB).
	MaxBatchBytes int
	// CompactBytes / CompactRecords trigger a replica-WAL snapshot once
	// a component's wrapper log reaches either threshold (defaults
	// 4 MiB / 1024 records).
	CompactBytes   int
	CompactRecords int
	// Metrics receives the si_replication_* instruments (optional).
	Metrics *obs.Registry
	// Now overrides the clock (tests).
	Now func() time.Time
}

// recShip is the wrapper record type in a follower's replica WAL: one
// record per applied batch, payload = 8B LE generation + 8B LE
// next-offset + the raw leader frames. Cursor and frames land in one
// fsynced append, so a restart resumes from a consistent pair — no
// duplicate applies, no holes.
const recShip byte = 1

// shipSnapshot is the wrapper snapshot payload: the cursor plus the
// component's full exported state as of it.
type shipSnapshot struct {
	Gen   uint64 `json:"gen"`
	Off   int64  `json:"off"`
	State []byte `json:"state"`
}

// errGone marks a 410 from the leader: the cursor predates retained
// state, re-bootstrap.
var errGone = errors.New("replica: cursor gone")

// defaultCompact is a replica WAL's compaction threshold — the leader's,
// since a wrapper record carries the same frames.
var defaultCompact = store.CompactLimit{Bytes: 4 << 20, Records: 1024}

// followerComp is one component's replication state and the store.State
// of its replica WAL: the replicated component plus the cursor it has
// been applied up to. A wrapper snapshot restores both and a wrapper
// record advances both, so a restart resumes from exactly what the pull
// loop durably acknowledged.
type followerComp struct {
	name  string
	state store.State      // the replicated component inside Follower.comps
	comp  *store.Component // nil = memory-only

	mu         sync.Mutex
	cursor     store.Cursor
	frames     uint64
	bootstraps uint64
}

func (fc *followerComp) ApplySnapshot(payload []byte) error {
	var snap shipSnapshot
	if len(payload) > 0 {
		if err := json.Unmarshal(payload, &snap); err != nil {
			return fmt.Errorf("replica: decode %s snapshot: %w", fc.name, err)
		}
	}
	if err := fc.state.ApplySnapshot(snap.State); err != nil {
		return err
	}
	fc.mu.Lock()
	fc.cursor = store.Cursor{Gen: snap.Gen, Offset: snap.Off}
	fc.mu.Unlock()
	return nil
}

func (fc *followerComp) ApplyRecord(rec store.Record) error {
	if rec.Type != recShip {
		return nil
	}
	cur, frames, err := decodeWrapper(rec.Payload)
	if err != nil {
		return fmt.Errorf("replica: decode %s wrapper record: %w", fc.name, err)
	}
	recs, err := store.ParseFrames(frames)
	if err != nil {
		return fmt.Errorf("replica: %s wrapper frames: %w", fc.name, err)
	}
	return fc.applyFrames(cur, recs)
}

// applyFrames folds parsed leader records into the replicated component
// and then advances the cursor past them.
func (fc *followerComp) applyFrames(next store.Cursor, recs []store.Record) error {
	for _, r := range recs {
		if err := fc.state.ApplyRecord(r); err != nil {
			return err
		}
	}
	fc.mu.Lock()
	fc.cursor = next
	fc.frames += uint64(len(recs))
	fc.mu.Unlock()
	return nil
}

func (fc *followerComp) ExportSnapshot() ([]byte, error) {
	state, err := fc.state.ExportSnapshot()
	if err != nil {
		return nil, err
	}
	cur := fc.status().Cursor
	return json.Marshal(shipSnapshot{Gen: cur.Gen, Off: cur.Offset, State: state})
}

func (fc *followerComp) status() ComponentStatus {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return ComponentStatus{Cursor: fc.cursor, FramesApplied: fc.frames, Bootstraps: fc.bootstraps}
}

type followerMetrics struct {
	lag          *obs.Gauge
	breakerState *obs.Gauge
	frames       *obs.CounterVec
	bootstraps   *obs.CounterVec
}

// Follower pulls WAL frames from a leader and applies them through the
// persist replay path into read-only components. Safe for concurrent
// use: Sync runs from one goroutine (the Run loop), accessors may be
// called from request handlers.
type Follower struct {
	cfg     Config
	comps   *persist.Components
	breaker *resilience.Breaker
	met     *followerMetrics

	fcs []*followerComp // in persist.ComponentNames order; fixed by New

	mu         sync.Mutex
	startedAt  time.Time
	caughtUpAt time.Time
	lastErr    string
}

// New builds a follower and, when cfg.FS is set, replays its durable
// replica WALs so the cursor and state resume where the last process
// stopped. It does not contact the leader; call Sync or Run for that.
func New(cfg Config) (*Follower, error) {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 1 << 20
	}
	if cfg.Retry.MaxRetries == 0 && cfg.Retry.BaseDelay == 0 {
		cfg.Retry = resilience.Defaults()
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	f := &Follower{cfg: cfg, comps: persist.NewComponents(), startedAt: cfg.Now()}
	if m := cfg.Metrics; m != nil {
		f.met = &followerMetrics{
			lag:          m.Gauge("si_replication_lag_seconds", "Seconds since the follower last confirmed it held the leader's committed state."),
			breakerState: m.Gauge("si_replication_breaker_state", "Replication breaker state: 0 closed, 1 open, 2 half-open."),
			frames:       m.CounterVec("si_replication_frames_applied_total", "Shipped WAL frames applied, by component.", "component"),
			bootstraps:   m.CounterVec("si_replication_snapshot_bootstraps_total", "Snapshot bootstraps applied, by component.", "component"),
		}
	}
	bcfg := cfg.Breaker
	if bcfg.Now == nil {
		bcfg.Now = cfg.Now
	}
	prev := bcfg.OnTransition
	bcfg.OnTransition = func(from, to resilience.State) {
		if cfg.Metrics != nil {
			cfg.Metrics.CounterVec("si_breaker_transitions_total",
				"Connector circuit-breaker state transitions.", "protocol", "to").
				With("replica", to.String()).Inc()
		}
		if prev != nil {
			prev(from, to)
		}
	}
	f.breaker = resilience.NewBreaker(bcfg)
	limit := store.CompactLimit{Bytes: cfg.CompactBytes, Records: cfg.CompactRecords}.OrDefault(defaultCompact)
	for _, name := range persist.ComponentNames {
		fc := &followerComp{name: name, state: f.comps.State(name)}
		f.fcs = append(f.fcs, fc)
		if cfg.FS == nil {
			continue
		}
		comp, err := store.OpenComponent(cfg.FS, "replica/"+name, "replica-"+name, fc, limit, cfg.Now, cfg.Metrics)
		if err != nil {
			f.Close()
			return nil, err
		}
		fc.comp = comp
	}
	return f, nil
}

func encodeWrapper(cur store.Cursor, frames []byte) []byte {
	buf := make([]byte, 16, 16+len(frames))
	binary.LittleEndian.PutUint64(buf[0:8], cur.Gen)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(cur.Offset))
	return append(buf, frames...)
}

func decodeWrapper(payload []byte) (store.Cursor, []byte, error) {
	if len(payload) < 16 {
		return store.Cursor{}, nil, fmt.Errorf("wrapper record too short (%d bytes)", len(payload))
	}
	cur := store.Cursor{
		Gen:    binary.LittleEndian.Uint64(payload[0:8]),
		Offset: int64(binary.LittleEndian.Uint64(payload[8:16])),
	}
	return cur, payload[16:], nil
}

// Components exposes the replicated state for the serving layer.
func (f *Follower) Components() *persist.Components { return f.comps }

// LeaderURL reports the configured leader base URL.
func (f *Follower) LeaderURL() string { return f.cfg.LeaderURL }

// Run pulls in a loop until ctx ends. Sync failures (including panics
// from a malformed leader response) never terminate the loop — they
// feed the breaker and the follower keeps serving last-applied state.
func (f *Follower) Run(ctx context.Context) {
	t := time.NewTicker(f.cfg.PollInterval)
	defer t.Stop()
	for {
		f.syncGuarded(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

func (f *Follower) syncGuarded(ctx context.Context) {
	defer func() {
		if r := recover(); r != nil {
			f.breaker.Failure()
			f.mu.Lock()
			f.lastErr = fmt.Sprintf("panic: %v", r)
			f.mu.Unlock()
			f.observe()
		}
	}()
	f.Sync(ctx)
}

// Sync performs one pull round: read the leader's committed cursors,
// catch every component up to them, and stamp the caught-up time the
// lag measures from. While the breaker is open it fails fast with
// resilience.ErrOpen.
func (f *Follower) Sync(ctx context.Context) error {
	if err := f.breaker.Allow(); err != nil {
		f.observe()
		return err
	}
	err := f.syncOnce(ctx)
	f.mu.Lock()
	if err != nil {
		f.lastErr = err.Error()
	} else {
		f.lastErr = ""
	}
	f.mu.Unlock()
	if err != nil {
		f.breaker.Failure()
	} else {
		f.breaker.Success()
	}
	f.observe()
	return err
}

func (f *Follower) syncOnce(ctx context.Context) error {
	// The status read happens before the catch-up, so statusAt is a
	// conservative "we held the leader's committed state as of" stamp.
	statusAt := f.cfg.Now()
	var st StatusBody
	if err := f.getJSON(ctx, "/replica/status", &st); err != nil {
		return fmt.Errorf("replica: status: %w", err)
	}
	for _, fc := range f.fcs {
		committed, ok := st.Components[fc.name]
		if !ok {
			continue
		}
		if err := f.syncComponent(ctx, fc, committed); err != nil {
			return fmt.Errorf("replica: %s: %w", fc.name, err)
		}
	}
	f.mu.Lock()
	f.caughtUpAt = statusAt
	f.mu.Unlock()
	return nil
}

// syncComponent pulls one component up to (at least) the committed
// cursor observed at the round's start.
func (f *Follower) syncComponent(ctx context.Context, fc *followerComp, committed store.Cursor) error {
	// A damaged replica WAL (failed append fsync) heals through a
	// snapshot, like every Dir: write one from current state before
	// pulling more.
	if fc.comp != nil && fc.comp.Dir().Damaged() != nil {
		if err := fc.comp.Compact(); err != nil {
			return err
		}
	}
	for {
		cur := fc.status().Cursor
		if cur.Gen == committed.Gen && cur.Offset >= committed.Offset {
			return nil
		}
		if cur.Gen == 0 {
			// Fresh follower: no cursor yet.
			if err := f.bootstrap(ctx, fc); err != nil {
				return err
			}
			continue
		}
		frames, next, err := f.fetchWAL(ctx, fc.name, cur)
		if errors.Is(err, errGone) {
			if err := f.bootstrap(ctx, fc); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
		if len(frames) == 0 {
			// Caught up with the leader's live committed offset — which
			// may differ from the stale status observation; both mean
			// there is nothing more to pull this round.
			return nil
		}
		if err := f.applyBatch(fc, next, frames); err != nil {
			return err
		}
	}
}

// applyBatch lands one fetched batch: the (cursor, frames) wrapper
// record is durable before the frames touch memory and the cursor
// advances. A crash between the two replays the wrapper record on
// restart — the apply is repeated, never skipped and never doubled.
func (f *Follower) applyBatch(fc *followerComp, next store.Cursor, frames []byte) error {
	recs, err := store.ParseFrames(frames)
	if err != nil {
		return err
	}
	apply := func() error { return fc.applyFrames(next, recs) }
	if fc.comp == nil {
		err = apply()
	} else {
		err = fc.comp.Journal(store.Record{Type: recShip, Payload: encodeWrapper(next, frames)}, apply)
	}
	if err == nil && f.met != nil {
		f.met.frames.With(fc.name).Add(int64(len(recs)))
	}
	return err
}

// bootstrap replaces one component's state with the leader's full
// committed export, then seals it into the replica WAL as a wrapper
// snapshot so the old cursor line is truncated.
func (f *Follower) bootstrap(ctx context.Context, fc *followerComp) error {
	var b store.Bootstrap
	if err := f.getJSON(ctx, "/replica/bootstrap/"+fc.name, &b); err != nil {
		return err
	}
	recs, err := store.ParseFrames(b.Frames)
	if err != nil {
		return err
	}
	if err := fc.state.ApplySnapshot(b.Snapshot); err != nil {
		return err
	}
	if err := fc.applyFrames(b.Next, recs); err != nil {
		return err
	}
	fc.mu.Lock()
	fc.bootstraps++
	fc.mu.Unlock()
	if f.met != nil {
		f.met.bootstraps.With(fc.name).Inc()
		f.met.frames.With(fc.name).Add(int64(len(recs)))
	}
	if fc.comp != nil {
		return fc.comp.Compact()
	}
	return nil
}

// ---------------------------------------------------------------------
// Leader HTTP client

// getJSON fetches a leader JSON endpoint under the retry policy.
func (f *Follower) getJSON(ctx context.Context, path string, out any) error {
	_, err := f.cfg.Retry.Do(ctx, func(ctx context.Context) error {
		body, _, err := f.get(ctx, f.cfg.LeaderURL+path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(body, out); err != nil {
			return fmt.Errorf("decode %s: %w", path, err)
		}
		return nil
	})
	return err
}

// fetchWAL fetches one batch of frames; errGone reports a 410.
func (f *Follower) fetchWAL(ctx context.Context, component string, cur store.Cursor) (frames []byte, next store.Cursor, err error) {
	url := fmt.Sprintf("%s/replica/wal/%s?gen=%d&off=%d&max=%d",
		f.cfg.LeaderURL, component, cur.Gen, cur.Offset, f.cfg.MaxBatchBytes)
	_, err = f.cfg.Retry.Do(ctx, func(ctx context.Context) error {
		body, hdr, gerr := f.get(ctx, url)
		if gerr != nil {
			return gerr
		}
		gen, e1 := strconv.ParseUint(hdr.Get(GenHeader), 10, 64)
		off, e2 := strconv.ParseInt(hdr.Get(NextOffsetHeader), 10, 64)
		if e1 != nil || e2 != nil {
			return fmt.Errorf("malformed batch headers (gen %q, off %q)", hdr.Get(GenHeader), hdr.Get(NextOffsetHeader))
		}
		frames, next = body, store.Cursor{Gen: gen, Offset: off}
		return nil
	})
	return frames, next, err
}

// get issues one GET, classifying the response for the retry policy:
// 410 is the permanent re-bootstrap signal, other 4xx are permanent,
// 429/503 honor Retry-After, and 5xx/transport errors retry.
func (f *Follower) get(ctx context.Context, url string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, resilience.Permanent(err)
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return body, resp.Header, nil
	case resp.StatusCode == http.StatusGone:
		return nil, nil, resilience.Permanent(errGone)
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		err := fmt.Errorf("leader returned %s", resp.Status)
		if s, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && s > 0 {
			err = resilience.RetryAfter(err, time.Duration(s)*time.Second)
		}
		return nil, nil, err
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return nil, nil, resilience.Permanent(fmt.Errorf("leader returned %s", resp.Status))
	default:
		return nil, nil, fmt.Errorf("leader returned %s", resp.Status)
	}
}

// ---------------------------------------------------------------------
// Health and metrics surfaces

// ComponentStatus is one component's replication state for /health.
type ComponentStatus struct {
	Cursor        store.Cursor `json:"cursor"`
	FramesApplied uint64       `json:"frames_applied"`
	Bootstraps    uint64       `json:"bootstraps"`
}

// Status is the follower's replication report for /health and the ops
// panel.
type Status struct {
	Leader     string                     `json:"leader"`
	LagSeconds float64                    `json:"lag_seconds"`
	CaughtUpAt time.Time                  `json:"caught_up_at,omitzero"`
	AppliedSeq uint64                     `json:"applied_seq"`
	Breaker    string                     `json:"breaker"`
	LastError  string                     `json:"last_error,omitempty"`
	Components map[string]ComponentStatus `json:"components"`
}

// Lag reports how long ago the follower last confirmed it held the
// leader's committed state; before the first successful sync it counts
// from the follower's start.
func (f *Follower) Lag() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	base := f.caughtUpAt
	if base.IsZero() {
		base = f.startedAt
	}
	return f.cfg.Now().Sub(base)
}

// Degraded reports whether the follower is failing to track the leader
// (breaker not closed, or the last sync errored).
func (f *Follower) Degraded() bool {
	if f.breaker.State() != resilience.Closed {
		return true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr != ""
}

// Breaker exposes the pull-loop breaker (tests, health).
func (f *Follower) Breaker() *resilience.Breaker { return f.breaker }

// Status snapshots the replication state.
func (f *Follower) Status() Status {
	lag := f.Lag()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Status{
		Leader:     f.cfg.LeaderURL,
		LagSeconds: lag.Seconds(),
		CaughtUpAt: f.caughtUpAt,
		AppliedSeq: f.comps.History().Seq(),
		Breaker:    f.breaker.State().String(),
		LastError:  f.lastErr,
		Components: make(map[string]ComponentStatus, len(f.fcs)),
	}
	for _, fc := range f.fcs {
		st.Components[fc.name] = fc.status()
	}
	return st
}

// observe refreshes the lag and breaker-state gauges.
func (f *Follower) observe() {
	if f.met == nil {
		return
	}
	f.met.lag.Set(f.Lag().Seconds())
	f.met.breakerState.Set(float64(int(f.breaker.State())))
}

// Close releases the replica WAL handles.
func (f *Follower) Close() error {
	var first error
	for _, fc := range f.fcs {
		if fc.comp == nil {
			continue
		}
		if err := fc.comp.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
