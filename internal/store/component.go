package store

import (
	"sync"
	"time"

	"shareinsights/internal/obs"
)

// State is the in-memory half of a durable component: the object its
// WAL and snapshots describe (docs/DURABILITY.md). The contract, pinned
// for every implementation by TestStateContract: ApplySnapshot(snapshot)
// then ApplyRecord for each later record rebuilds exactly the state that
// exported the snapshot and journaled the records.
type State interface {
	// ApplySnapshot replaces the state; a nil payload resets it to empty.
	ApplySnapshot(payload []byte) error
	// ApplyRecord folds one journaled record into the state.
	ApplyRecord(rec Record) error
	// ExportSnapshot serializes the full state for ApplySnapshot.
	ExportSnapshot() ([]byte, error)
}

// CompactLimit is a component's compaction trigger: a snapshot is cut
// once the current WAL segment reaches either bound.
type CompactLimit struct {
	Bytes, Records int
}

// OrDefault fills each unset (non-positive) bound from def.
func (l CompactLimit) OrDefault(def CompactLimit) CompactLimit {
	if l.Bytes <= 0 {
		l.Bytes = def.Bytes
	}
	if l.Records <= 0 {
		l.Records = def.Records
	}
	return l
}

// ComponentStatus is one component's durability state for the health
// surface: the recovery outcome plus current WAL size, damage, and the
// shipping cursor (generation + committed offset) followers track
// (docs/REPLICATION.md).
type ComponentStatus struct {
	Recovery
	WALBytes        int    `json:"wal_bytes"`
	WALRecords      int    `json:"wal_records"`
	Generation      uint64 `json:"generation"`
	CommittedOffset int64  `json:"committed_offset"`
	Damaged         string `json:"damaged,omitempty"`
}

// Component binds a State to its Dir and is the only implementation of
// open-and-replay, journal-then-apply and threshold compaction
// (docs/DURABILITY.md).
type Component struct {
	state    State
	limit    CompactLimit
	now      func() time.Time
	recovery *Recovery
	dir      *Dir

	// mu serializes Journal, Compact and Close: no record can land in a
	// segment after the snapshot that supersedes it was exported.
	mu sync.Mutex
}

// OpenComponent opens (creating if needed) the directory at path and
// rebuilds state from it: snapshot, then every record past it, in
// order. label names the si_store_* series and the recovery report;
// metrics may be nil.
func OpenComponent(fs FS, path, label string, state State, limit CompactLimit, now func() time.Time, metrics *obs.Registry) (*Component, error) {
	dir, rec, err := OpenDir(fs, path, label, metrics)
	if err != nil {
		return nil, err
	}
	if err := replay(state, rec); err != nil {
		dir.Close()
		return nil, err
	}
	rec.Records, rec.Snapshot = nil, nil // release the replay buffers
	return &Component{state: state, limit: limit, now: now, recovery: rec, dir: dir}, nil
}

func replay(state State, rec *Recovery) error {
	if err := state.ApplySnapshot(rec.Snapshot); err != nil {
		return err
	}
	for _, r := range rec.Records {
		if err := state.ApplyRecord(r); err != nil {
			return err
		}
	}
	return nil
}

// Journal makes rec durable, then runs apply — the in-memory fold of
// the same mutation, which the caller holds in decoded form and which
// must leave the state as State.ApplyRecord(rec) would — then compacts
// if the WAL reached the limit. A failed append returns before apply:
// memory never holds a mutation the disk has not acknowledged.
func (c *Component) Journal(rec Record, apply func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.dir.Append(rec); err != nil {
		return err
	}
	if err := apply(); err != nil {
		return err
	}
	if b, n := c.dir.WALSize(); b >= c.limit.Bytes || n >= c.limit.Records {
		// Best-effort: a failed compaction leaves the WAL long (or the
		// dir damaged), never loses acknowledged state.
		_ = c.compactLocked()
	}
	return nil
}

// Compact snapshots the current state and starts a fresh WAL segment
// now — also the repair path for a Dir turned fail-stop.
func (c *Component) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.compactLocked()
}

func (c *Component) compactLocked() error {
	payload, err := c.state.ExportSnapshot()
	if err != nil {
		return err
	}
	return c.dir.Snapshot(payload, c.now())
}

// Dir exposes the durable directory for WAL shipping.
func (c *Component) Dir() *Dir { return c.dir }

// Recovery reports what opening the component found on disk.
func (c *Component) Recovery() *Recovery { return c.recovery }

// Status reports the component's durability state.
func (c *Component) Status() ComponentStatus {
	st := ComponentStatus{Recovery: *c.recovery}
	st.WALBytes, st.WALRecords = c.dir.WALSize()
	cur := c.dir.Cursor()
	st.Generation, st.CommittedOffset = cur.Gen, cur.Offset
	if err := c.dir.Damaged(); err != nil {
		st.Damaged = err.Error()
	}
	return st
}

// Close waits for an in-flight Journal, then fsyncs and closes the
// directory.
func (c *Component) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dir.Close()
}
