// Package persist wires the platform's stateful components — the
// flow-file VCS repositories, the shared-object catalog and the
// last-good source cache — to crash-consistent storage (internal/store).
//
// Each component gets its own WAL + snapshot directory. Mutations are
// journaled write-ahead: the component's journal hook appends to the
// WAL (fsynced) before the mutation is installed in memory, so an
// operation is acknowledged to callers only once it is durable. After a
// crash, recovery replays snapshot + WAL and the rebuilt state equals
// exactly the acknowledged prefix of operations.
//
// Every component is one store.Component — the single implementation of
// replay, journal-then-apply and threshold compaction — over a shadow
// copy (Components): each journaled entry is also applied to the shadow
// inside the component's journal step, so a snapshot can be exported
// from the shadow at a WAL-size threshold without racing appends.
package persist

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"shareinsights/internal/dashboard"
	"shareinsights/internal/obs"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/share"
	"shareinsights/internal/store"
	"shareinsights/internal/table"
	"shareinsights/internal/vcs"
)

// Options configures a Store.
type Options struct {
	// Metrics receives the si_store_* instruments (optional).
	Metrics *obs.Registry
	// CompactBytes triggers a snapshot once the vcs, catalog or cache
	// WAL exceeds this many bytes (default 4 MiB).
	CompactBytes int
	// CompactRecords triggers a snapshot once one of those WALs holds
	// this many records (default 1024).
	CompactRecords int
	// Now overrides the clock (tests).
	Now func() time.Time
}

// defaultCompact is the compaction threshold of the vcs, catalog and
// cache components. The flight recorder keeps its own (history.Options).
var defaultCompact = store.CompactLimit{Bytes: 4 << 20, Records: 1024}

// Store is the platform's durable state: the components of
// componentTable sharing one data directory, each a store.Component
// journaling into the shadow Components.
type Store struct {
	opts Options

	// shadow is the replica every journaled entry is also applied to:
	// what recovery rebuilt, and what compaction exports.
	shadow *Components
	comps  map[string]*store.Component

	// liveRepos are the journaled repositories handed to the server.
	mu        sync.Mutex
	liveRepos map[string]*vcs.Repo
}

// Open opens (creating if needed) the durable store under fs and runs
// recovery for every component. Use store.NewOSFS(dataDir) in
// production; tests inject MemFS/FaultFS.
func Open(fs store.FS, opts Options) (*Store, error) {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Store{
		opts:      opts,
		shadow:    NewComponents(),
		comps:     map[string]*store.Component{},
		liveRepos: map[string]*vcs.Repo{},
	}
	for _, def := range componentTable {
		comp, err := def.open(s, fs, def)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.comps[def.name] = comp
	}
	// Live repositories are rebuilt from the shadows: distinct objects
	// (the journal hook applies entries to the shadow while the live
	// repo's lock is held, which would deadlock if they were the same
	// repo) sharing immutable blob and commit payloads.
	for name, sh := range s.shadow.Repos() {
		live := vcs.FromState(sh.State())
		live.SetJournal(s.repoJournal(name))
		s.liveRepos[name] = live
	}
	return s, nil
}

// openShadowed opens a component whose live object journals through a
// hook into the shadow Components (vcs, catalog, cache).
func openShadowed(s *Store, fs store.FS, def componentDef) (*store.Component, error) {
	limit := store.CompactLimit{Bytes: s.opts.CompactBytes, Records: s.opts.CompactRecords}.OrDefault(defaultCompact)
	return store.OpenComponent(fs, def.name, def.name, def.state(s.shadow), limit, s.opts.Now, s.opts.Metrics)
}

// openHistory opens the flight recorder, which is its own live object:
// it journals itself, one WAL record per run, at its own thresholds.
func openHistory(s *Store, fs store.FS, _ componentDef) (*store.Component, error) {
	rec, err := history.Open(fs, history.Options{Metrics: s.opts.Metrics, Now: s.opts.Now})
	if err != nil {
		return nil, err
	}
	s.shadow.recorder = rec
	return rec.Component(), nil
}

// repoJournal returns the write-ahead hook for one repository. It runs
// under the live repo's lock.
func (s *Store) repoJournal(name string) func(vcs.Entry) error {
	return func(e vcs.Entry) error {
		return s.journal("vcs", vcsRecord{Repo: name, Entry: e}, func() error { return s.shadow.applyVCS(name, e) })
	}
}

// journal is the one write-ahead step behind every hook: entry, encoded,
// becomes durable in the named component's WAL, then mirror folds the
// same mutation into the shadow.
func (s *Store) journal(component string, entry any, mirror func() error) error {
	payload, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	return s.comps[component].Journal(store.Record{Type: recEntry, Payload: payload}, mirror)
}

// catalogJournal is the catalog's write-ahead hook (runs under the live
// catalog's lock).
func (s *Store) catalogJournal(e share.Entry) error {
	rec, err := catRecordOf(e)
	if err != nil {
		return err
	}
	return s.journal("catalog", rec, func() error { return s.shadow.catalog.Apply(e) })
}

// cacheJournal is the last-good cache's write-ahead hook (runs under
// the live cache's lock; failures are tolerated by the caller).
func (s *Store) cacheJournal(dash, source string, t *table.Table) error {
	return s.journal("cache", cacheRecord{Dashboard: dash, Source: source, Table: encodeTable(t)}, func() error {
		s.shadow.cache.Seed(dash, source, t)
		return nil
	})
}

// WirePlatform seeds the platform's catalog and last-good cache with
// the recovered state and installs their write-ahead journals. Call
// once, before the platform serves traffic.
func (s *Store) WirePlatform(p *dashboard.Platform) error {
	for _, o := range s.shadow.catalog.Objects() {
		if err := p.Catalog.Apply(share.Entry{Kind: share.EntryPublish, Object: o}); err != nil {
			return err
		}
	}
	p.Catalog.SetJournal(s.catalogJournal)
	s.shadow.cache.Each(func(dash, src string, t *table.Table) { p.LastGood.Seed(dash, src, t) })
	p.LastGood.SetJournal(s.cacheJournal)
	p.History = s.shadow.recorder
	return nil
}

// Repos returns the recovered, journaled repositories by dashboard
// name. The server owns them from here on.
func (s *Store) Repos() map[string]*vcs.Repo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*vcs.Repo, len(s.liveRepos))
	for n, r := range s.liveRepos {
		out[n] = r
	}
	return out
}

// AdoptRepo starts journaling a repository created after Open (a saved
// or forked dashboard): its current state is journaled as one record
// and every later mutation flows through the write-ahead hook. On
// journal failure the repo is left unjournaled (memory-only) and the
// error returned.
func (s *Store) AdoptRepo(r *vcs.Repo) error {
	st := r.State()
	hook := s.repoJournal(r.Name)
	r.SetJournal(hook)
	if err := hook(vcs.Entry{Kind: vcs.EntryState, State: st}); err != nil {
		r.SetJournal(nil)
		return fmt.Errorf("persist: adopt repo %q: %w", r.Name, err)
	}
	s.mu.Lock()
	s.liveRepos[r.Name] = r
	s.mu.Unlock()
	return nil
}

// Metrics returns the registry the store's si_store_* instruments are
// registered on (nil when Options.Metrics was not set).
func (s *Store) Metrics() *obs.Registry { return s.opts.Metrics }

// Dir exposes one component's durable directory for WAL shipping
// (docs/REPLICATION.md). Nil for unknown components.
func (s *Store) Dir(component string) *store.Dir {
	if c := s.comps[component]; c != nil {
		return c.Dir()
	}
	return nil
}

// Recoveries reports each component's recovery outcome, in table order
// (vcs, catalog, cache, history).
func (s *Store) Recoveries() []*store.Recovery {
	out := make([]*store.Recovery, 0, len(s.comps))
	for _, name := range ComponentNames {
		out = append(out, s.comps[name].Recovery())
	}
	return out
}

// Status reports each component's durability state for the health
// surface, in table order.
func (s *Store) Status() []store.ComponentStatus {
	out := make([]store.ComponentStatus, 0, len(s.comps))
	for _, name := range ComponentNames {
		out = append(out, s.comps[name].Status())
	}
	return out
}

// Close fsyncs and closes every component directory.
func (s *Store) Close() error {
	var first error
	for _, name := range ComponentNames {
		c := s.comps[name]
		if c == nil {
			continue // Open failed before reaching this component
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
