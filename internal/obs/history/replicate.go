package history

import (
	"encoding/json"
	"fmt"

	"shareinsights/internal/store"
)

// The Recorder is a store.State twice, over one decode-and-fold path.
// journalState is what its own Component drives, with r.mu already held
// (Record holds it around Journal, whose compaction exports; Open runs
// before the recorder is shared). The exported, locking methods are what
// a follower's pull loop drives while handlers read (docs/REPLICATION.md).

type journalState Recorder

func (s *journalState) ApplySnapshot(payload []byte) error {
	return (*Recorder)(s).loadSnapshotLocked(payload)
}

func (s *journalState) ApplyRecord(rec store.Record) error {
	return (*Recorder)(s).applyRecordLocked(rec)
}

func (s *journalState) ExportSnapshot() ([]byte, error) {
	return json.Marshal((*Recorder)(s).snapshotLocked())
}

// loadSnapshotLocked replaces the recorder's state with a snapshot
// payload. A nil payload resets to empty (a leader that never
// compacted ships frames from genesis).
func (r *Recorder) loadSnapshotLocked(payload []byte) error {
	r.seq = 0
	r.runs = map[string][]*RunRecord{}
	r.profiles = map[profKey]*StageProfile{}
	if len(payload) == 0 {
		return nil
	}
	var snap snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return fmt.Errorf("history: decode snapshot: %w", err)
	}
	r.seq = snap.Seq
	for _, run := range snap.Runs {
		r.runs[run.Dashboard] = append(r.runs[run.Dashboard], run)
	}
	for _, p := range snap.Profiles {
		r.profiles[profKey{p.FlowHash, p.Output, p.Stage}] = p
	}
	return nil
}

// ApplySnapshot replaces the recorder's state with a leader snapshot
// payload (nil = reset to empty) — the bootstrap half of replication.
func (r *Recorder) ApplySnapshot(payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.loadSnapshotLocked(payload)
}

// ApplyRecord folds one shipped WAL record into the rings and profiles,
// preserving the leader-assigned sequence number.
func (r *Recorder) ApplyRecord(rec store.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applyRecordLocked(rec)
}

func (r *Recorder) applyRecordLocked(rec store.Record) error {
	if rec.Type != recRun {
		return nil // unknown record types skip
	}
	var run RunRecord
	if err := json.Unmarshal(rec.Payload, &run); err != nil {
		return fmt.Errorf("history: decode run record: %w", err)
	}
	r.applyLocked(&run)
	return nil
}

// ExportSnapshot serializes the full recorder state in the snapshot
// format Open and ApplySnapshot consume — the leader's bootstrap
// payload, and the follower's own compaction payload.
func (r *Recorder) ExportSnapshot() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return json.Marshal(r.snapshotLocked())
}

// Seq reports the newest run sequence number applied — the follower's
// applied-seq health field.
func (r *Recorder) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
