package persist

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"shareinsights/internal/dashboard"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/share"
	"shareinsights/internal/store"
	"shareinsights/internal/table"
	"shareinsights/internal/vcs"
)

// componentDef is one row of the component table: where the component's
// store.State lives inside a Components, and how a leader Store opens
// its durable directory.
type componentDef struct {
	name  string
	state func(*Components) store.State
	open  func(*Store, store.FS, componentDef) (*store.Component, error)
}

// componentTable lists the replicated components in ship order — the
// one enumeration everything else derives from (ComponentNames,
// Components.State, the Store's loops, the leader's /replica/status, a
// follower's replica WALs), so adding a component is adding a row.
// Followers apply components independently; the order only fixes how
// status surfaces list them and the order Open recovers them in.
var componentTable = []componentDef{
	{"vcs", func(c *Components) store.State { return vcsState{c} }, openShadowed},
	{"catalog", func(c *Components) store.State { return catalogState{c.catalog} }, openShadowed},
	{"cache", func(c *Components) store.State { return cacheState{c.cache} }, openShadowed},
	{"history", func(c *Components) store.State { return c.recorder }, openHistory},
}

// ComponentNames lists the component directories in table order.
var ComponentNames = func() []string {
	names := make([]string, len(componentTable))
	for i, def := range componentTable {
		names[i] = def.name
	}
	return names
}()

// Components holds one in-memory copy of every component. A leader
// Store recovers into one and journals through it as its shadow; a
// follower feeds one from shipped frames. Both go through the same
// State per component, so a follower's state after applying a shipped
// prefix equals a leader recovery over that prefix by construction.
//
// The contained objects are internally locked (vcs.Repo, share.Catalog,
// dashboard.SourceCache, history.Recorder), so readers may hold them
// while the pull loop applies new frames.
type Components struct {
	mu       sync.Mutex
	repos    map[string]*vcs.Repo
	catalog  *share.Catalog
	cache    *dashboard.SourceCache
	recorder *history.Recorder
	onRepos  func(map[string]*vcs.Repo)
}

// NewComponents returns an empty state with a memory-only recorder.
func NewComponents() *Components {
	return &Components{
		repos:    map[string]*vcs.Repo{},
		catalog:  share.NewCatalog(),
		cache:    dashboard.NewSourceCache(),
		recorder: history.NewRecorder(history.Options{}),
	}
}

// State returns the named component's state — the one lookup behind
// every apply and export. Nil for unknown components.
func (c *Components) State(component string) store.State {
	for _, def := range componentTable {
		if def.name == component {
			return def.state(c)
		}
	}
	return nil
}

// OnRepos installs a callback fired (with a copy of the full repo map)
// whenever the repository set changes — a shipped record created a repo,
// or a bootstrap replaced the set. The server uses it to refresh its
// routing table.
func (c *Components) OnRepos(fn func(map[string]*vcs.Repo)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onRepos = fn
}

func (c *Components) reposChanged() {
	c.mu.Lock()
	fn, copied := c.onRepos, c.reposCopyLocked()
	c.mu.Unlock()
	if fn != nil {
		fn(copied)
	}
}

func (c *Components) reposCopyLocked() map[string]*vcs.Repo {
	out := make(map[string]*vcs.Repo, len(c.repos))
	for n, r := range c.repos {
		out[n] = r
	}
	return out
}

// Repos returns the replicated repositories by name (a copy).
func (c *Components) Repos() map[string]*vcs.Repo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reposCopyLocked()
}

// Catalog returns the replicated shared-object catalog.
func (c *Components) Catalog() *share.Catalog { return c.catalog }

// Cache returns the replicated last-good source cache.
func (c *Components) Cache() *dashboard.SourceCache { return c.cache }

// History returns the run-history recorder (memory-only on a follower:
// its durability lives in the replica WAL).
func (c *Components) History() *history.Recorder { return c.recorder }

// applyVCS installs one repository mutation, creating the repository on
// first sight — shared by record replay and the leader's journal hook.
func (c *Components) applyVCS(repo string, e vcs.Entry) error {
	c.mu.Lock()
	r := c.repos[repo]
	created := r == nil
	if created {
		r = vcs.NewRepo(repo)
		c.repos[repo] = r
	}
	c.mu.Unlock()
	if err := r.Apply(e); err != nil {
		return fmt.Errorf("persist: replay vcs record for %q: %w", repo, err)
	}
	if created {
		c.reposChanged()
	}
	return nil
}

// vcsState is the repository set as a store.State.
type vcsState struct{ c *Components }

func (s vcsState) ApplySnapshot(payload []byte) error {
	repos := map[string]*vcs.Repo{}
	if len(payload) > 0 {
		var snap vcsSnapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			return fmt.Errorf("persist: decode vcs snapshot: %w", err)
		}
		for _, st := range snap.Repos {
			repos[st.Name] = vcs.FromState(st)
		}
	}
	s.c.mu.Lock()
	s.c.repos = repos
	s.c.mu.Unlock()
	s.c.reposChanged()
	return nil
}

func (s vcsState) ApplyRecord(rec store.Record) error {
	var vr vcsRecord
	if err := json.Unmarshal(rec.Payload, &vr); err != nil {
		return fmt.Errorf("persist: decode vcs record: %w", err)
	}
	return s.c.applyVCS(vr.Repo, vr.Entry)
}

// ExportSnapshot sorts the repositories by name for stable output.
func (s vcsState) ExportSnapshot() ([]byte, error) {
	repos := s.c.Repos()
	snap := vcsSnapshot{Repos: make([]*vcs.RepoState, 0, len(repos))}
	for _, r := range repos {
		snap.Repos = append(snap.Repos, r.State())
	}
	sort.Slice(snap.Repos, func(a, b int) bool { return snap.Repos[a].Name < snap.Repos[b].Name })
	return json.Marshal(snap)
}

// catalogState is the shared-object catalog as a store.State.
type catalogState struct{ cat *share.Catalog }

// ApplySnapshot replaces the catalog's contents: names absent from the
// snapshot are removed, present ones re-applied.
func (s catalogState) ApplySnapshot(payload []byte) error {
	var snap catSnapshot
	if len(payload) > 0 {
		if err := json.Unmarshal(payload, &snap); err != nil {
			return fmt.Errorf("persist: decode catalog snapshot: %w", err)
		}
	}
	keep := make(map[string]bool, len(snap.Objects))
	for _, o := range snap.Objects {
		keep[o.Name] = true
	}
	for _, name := range s.cat.Names() {
		if !keep[name] {
			if err := s.cat.Apply(share.Entry{Kind: share.EntryRemove, Name: name}); err != nil {
				return err
			}
		}
	}
	for _, o := range snap.Objects {
		e, err := catEntryOf(o)
		if err != nil {
			return err
		}
		if err := s.cat.Apply(e); err != nil {
			return err
		}
	}
	return nil
}

func (s catalogState) ApplyRecord(rec store.Record) error {
	var obj catObject
	if err := json.Unmarshal(rec.Payload, &obj); err != nil {
		return fmt.Errorf("persist: decode catalog record: %w", err)
	}
	e, err := catEntryOf(obj)
	if err != nil {
		return err
	}
	return s.cat.Apply(e)
}

func (s catalogState) ExportSnapshot() ([]byte, error) {
	objs := s.cat.Objects()
	snap := catSnapshot{Objects: make([]catObject, 0, len(objs))}
	for _, o := range objs {
		snap.Objects = append(snap.Objects, publishOf(o))
	}
	return json.Marshal(snap)
}

// cacheState is the last-good source cache as a store.State.
type cacheState struct{ cache *dashboard.SourceCache }

func (s cacheState) ApplySnapshot(payload []byte) error {
	s.cache.Reset()
	if len(payload) == 0 {
		return nil
	}
	var snap cacheSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return fmt.Errorf("persist: decode cache snapshot: %w", err)
	}
	for _, cr := range snap.Entries {
		if err := s.seed(cr); err != nil {
			return err
		}
	}
	return nil
}

func (s cacheState) ApplyRecord(rec store.Record) error {
	var cr cacheRecord
	if err := json.Unmarshal(rec.Payload, &cr); err != nil {
		return fmt.Errorf("persist: decode cache record: %w", err)
	}
	return s.seed(cr)
}

func (s cacheState) seed(cr cacheRecord) error {
	t, err := decodeTable(cr.Table)
	if err != nil {
		return err
	}
	s.cache.Seed(cr.Dashboard, cr.Source, t)
	return nil
}

// ExportSnapshot sorts the entries for stable output.
func (s cacheState) ExportSnapshot() ([]byte, error) {
	snap := cacheSnapshot{}
	s.cache.Each(func(d, src string, tb *table.Table) {
		snap.Entries = append(snap.Entries, cacheRecord{Dashboard: d, Source: src, Table: encodeTable(tb)})
	})
	sort.Slice(snap.Entries, func(a, b int) bool {
		if snap.Entries[a].Dashboard != snap.Entries[b].Dashboard {
			return snap.Entries[a].Dashboard < snap.Entries[b].Dashboard
		}
		return snap.Entries[a].Source < snap.Entries[b].Source
	})
	return json.Marshal(snap)
}
