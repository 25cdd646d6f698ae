package vcs

import (
	"fmt"
)

// Entry kinds journaled by a Repo.
const (
	// EntryCommit records one commit: metadata plus full blob content.
	EntryCommit = "commit"
	// EntryBranch records a branch created at an existing tip.
	EntryBranch = "branch"
	// EntryState records a full repository state (used when adopting a
	// repo — e.g. a fork — whose history predates its journal).
	EntryState = "state"
)

// Entry is one journalable repository mutation. Replaying a repo's
// entries in order rebuilds it exactly: commit hashes cover the recorded
// sequence number and timestamp, so recovered history is byte-identical
// to the original.
type Entry struct {
	Kind    string     `json:"kind"`
	Branch  string     `json:"branch,omitempty"`
	Commit  *Commit    `json:"commit,omitempty"`
	Content []byte     `json:"content,omitempty"`
	Seq     int        `json:"seq,omitempty"`
	Tip     string     `json:"tip,omitempty"`
	State   *RepoState `json:"state,omitempty"`
}

// RepoState is a repository's full exported state, the payload of
// snapshots and EntryState records.
type RepoState struct {
	Name     string             `json:"name"`
	Blobs    map[string][]byte  `json:"blobs"`
	Commits  map[string]*Commit `json:"commits"`
	Branches map[string]string  `json:"branches"`
	Seq      int                `json:"seq"`
}

// SetJournal installs a write-ahead hook: every mutation is passed to fn
// before it is installed in memory, and aborted if fn fails — an
// operation is acknowledged to callers only once it is durable. The hook
// runs under the repo's lock, so it must not call back into this repo
// (the persistence layer applies entries to a shadow replica instead).
func (r *Repo) SetJournal(fn func(Entry) error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.journal = fn
}

// Apply installs a journaled mutation, used for replay during recovery
// and for maintaining shadow replicas. It does not invoke the journal.
func (r *Repo) Apply(e Entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch e.Kind {
	case EntryCommit:
		if e.Commit == nil {
			return fmt.Errorf("vcs: commit entry without commit")
		}
		c := *e.Commit
		r.blobs[c.Blob] = append([]byte(nil), e.Content...)
		r.commits[c.Hash] = &c
		r.branches[e.Branch] = c.Hash
		if e.Seq > r.seq {
			r.seq = e.Seq
		}
	case EntryBranch:
		r.branches[e.Branch] = e.Tip
	case EntryState:
		if e.State == nil {
			return fmt.Errorf("vcs: state entry without state")
		}
		r.loadStateLocked(e.State)
	default:
		return fmt.Errorf("vcs: unknown journal entry kind %q", e.Kind)
	}
	return nil
}

// State exports the repository for snapshotting. Maps are copied;
// commits and blob contents are shared (both are immutable once
// recorded).
func (r *Repo) State() *RepoState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := &RepoState{
		Name:     r.Name,
		Blobs:    make(map[string][]byte, len(r.blobs)),
		Commits:  make(map[string]*Commit, len(r.commits)),
		Branches: make(map[string]string, len(r.branches)),
		Seq:      r.seq,
	}
	for k, v := range r.blobs {
		st.Blobs[k] = v
	}
	for k, v := range r.commits {
		st.Commits[k] = v
	}
	for k, v := range r.branches {
		st.Branches[k] = v
	}
	return st
}

// FromState builds a repository from an exported state. The result has
// no journal installed.
func FromState(st *RepoState) *Repo {
	r := NewRepo(st.Name)
	r.loadStateLocked(st)
	return r
}

func (r *Repo) loadStateLocked(st *RepoState) {
	r.blobs = make(map[string][]byte, len(st.Blobs))
	r.commits = make(map[string]*Commit, len(st.Commits))
	r.branches = make(map[string]string, len(st.Branches))
	for k, v := range st.Blobs {
		r.blobs[k] = v
	}
	for k, v := range st.Commits {
		r.commits[k] = v
	}
	for k, v := range st.Branches {
		r.branches[k] = v
	}
	r.seq = st.Seq
}

// Equal reports whether two repositories hold identical histories:
// same branches, commits, blobs and sequence counter. Used by the
// crash-recovery tests to prove recovered state matches acknowledged
// state.
func (r *Repo) Equal(other *Repo) bool {
	a, b := r.State(), other.State()
	if a.Name != b.Name || a.Seq != b.Seq ||
		len(a.Blobs) != len(b.Blobs) || len(a.Commits) != len(b.Commits) || len(a.Branches) != len(b.Branches) {
		return false
	}
	for k, v := range a.Branches {
		if b.Branches[k] != v {
			return false
		}
	}
	for k, v := range a.Blobs {
		if string(b.Blobs[k]) != string(v) {
			return false
		}
	}
	for k, v := range a.Commits {
		w, ok := b.Commits[k]
		if !ok || v.Hash != w.Hash || v.Blob != w.Blob || v.Author != w.Author ||
			v.Message != w.Message || !v.Time.Equal(w.Time) || fmt.Sprint(v.Parents) != fmt.Sprint(w.Parents) {
			return false
		}
	}
	return true
}
