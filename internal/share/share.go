// Package share implements the platform-wide catalog of published data
// objects (§3.4.1 "Enable Group Access").
//
// A data-processing dashboard publishes its cleansed, aggregated sinks
// under stable names; consumption dashboards reference those names as
// ordinary data sources and "the platform searches for this data object
// in the shared objects list". The catalog is the piece that makes
// flow-file groups (§4.5.3) work: expensive raw-data flows run once, in
// the publishing dashboard, and every consumer starts from the published
// result.
package share

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
)

// Object is one published data object.
type Object struct {
	// Name is the publish name consumers reference.
	Name string
	// Dashboard is the publishing dashboard.
	Dashboard string
	// Schema is the object's column structure.
	Schema *schema.Schema
	// Data is the current materialized content.
	Data *table.Table
	// UpdatedAt records the last publish time.
	UpdatedAt time.Time
	// Version increments on every publish.
	Version int
}

// Catalog is a concurrency-safe registry of published objects. It can
// be bounded (SetLimit), journaled for durability (SetJournal) and
// instrumented (SetMetrics).
type Catalog struct {
	mu      sync.RWMutex
	objects map[string]*Object
	now     func() time.Time

	// limit caps the object count; 0 means unbounded. When a new publish
	// would exceed it, the least-recently-used objects are evicted.
	limit    int
	lastUsed map[string]uint64
	useSeq   uint64
	journal  func(Entry) error
	met      *catalogMetrics
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{objects: map[string]*Object{}, lastUsed: map[string]uint64{}, now: time.Now}
}

// SetClock overrides the catalog's clock (tests).
func (c *Catalog) SetClock(now func() time.Time) { c.now = now }

// Publish stores (or replaces) a published object. Re-publishing from a
// different dashboard is rejected: publish names are owned by their
// first publisher, so one team cannot silently shadow another's data.
func (c *Catalog) Publish(dashboard, name string, data *table.Table) (*Object, error) {
	if name == "" {
		return nil, fmt.Errorf("share: empty publish name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, exists := c.objects[name]
	if exists && prev.Dashboard != dashboard {
		return nil, fmt.Errorf("share: %q is already published by dashboard %q", name, prev.Dashboard)
	}
	obj := &Object{
		Name:      name,
		Dashboard: dashboard,
		Schema:    data.Schema(),
		Data:      data,
		UpdatedAt: c.now(),
	}
	if exists {
		obj.Version = prev.Version + 1
	} else {
		obj.Version = 1
	}
	// Journal before install: the publish is acknowledged only once it is
	// durable, so a consumer that resolved the object will resolve it
	// again after a crash.
	if c.journal != nil {
		if err := c.journal(Entry{Kind: EntryPublish, Object: obj}); err != nil {
			return nil, fmt.Errorf("share: journal publish %q: %w", name, err)
		}
	}
	c.objects[name] = obj
	c.touchLocked(name)
	if !exists {
		c.evictOverLimitLocked(name)
	}
	c.setGaugeLocked()
	return obj, nil
}

func (c *Catalog) touchLocked(name string) {
	c.useSeq++
	c.lastUsed[name] = c.useSeq
}

// evictOverLimitLocked drops least-recently-used objects until the
// catalog fits its limit (at least 1, so there is always one other than
// keep, the object just published, which is never evicted). Evictions are journaled like removes; if the
// journal fails the object stays — the cap yields to durability.
func (c *Catalog) evictOverLimitLocked(keep string) {
	if c.limit <= 0 {
		return
	}
	for len(c.objects) > c.limit {
		victim := ""
		var oldest uint64
		for n := range c.objects {
			if n == keep {
				continue
			}
			if u := c.lastUsed[n]; victim == "" || u < oldest {
				victim, oldest = n, u
			}
		}
		if c.journal != nil {
			if err := c.journal(Entry{Kind: EntryRemove, Name: victim}); err != nil {
				return
			}
		}
		delete(c.objects, victim)
		delete(c.lastUsed, victim)
		if c.met != nil {
			c.met.evictions.Inc()
		}
	}
}

func (c *Catalog) setGaugeLocked() {
	if c.met != nil {
		c.met.objects.Set(float64(len(c.objects)))
	}
}

// Resolve returns a published object by name and marks it
// recently-used for the eviction policy.
func (c *Catalog) Resolve(name string) (*Object, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.objects[name]
	if ok {
		c.touchLocked(name)
	}
	return o, ok
}

// ResolveSchema adapts the catalog to dag.SharedResolver.
func (c *Catalog) ResolveSchema(name string) (*schema.Schema, bool) {
	o, ok := c.Resolve(name)
	if !ok {
		return nil, false
	}
	return o.Schema, true
}

// Names lists published names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.objects))
	for n := range c.objects {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Suggestion is one discovery hit: a published object that could enrich
// a pipeline, with the column names it shares.
type Suggestion struct {
	// Object is the published object.
	Object *Object
	// SharedColumns are the column names in common — candidate join
	// keys.
	SharedColumns []string
}

// Suggest implements the §6 discovery feature: "since data is published
// on the platform, it potentially allows for discovery of data-sets to
// enrich an existing data pipeline". It returns published objects
// sharing at least one column name with the given schema, ranked by
// overlap size (ties by name) — shared columns are the natural join
// keys a flow author would reach for.
func (c *Catalog) Suggest(s *schema.Schema) []Suggestion {
	cols := map[string]bool{}
	for _, col := range s.Columns() {
		cols[col.Name] = true
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Suggestion
	for _, obj := range c.objects {
		var shared []string
		for _, col := range obj.Schema.Columns() {
			if cols[col.Name] {
				shared = append(shared, col.Name)
			}
		}
		if len(shared) > 0 {
			sort.Strings(shared)
			out = append(out, Suggestion{Object: obj, SharedColumns: shared})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a].SharedColumns) != len(out[b].SharedColumns) {
			return len(out[a].SharedColumns) > len(out[b].SharedColumns)
		}
		return out[a].Object.Name < out[b].Object.Name
	})
	return out
}

// Search returns published objects whose name or column names contain
// the query (case-insensitive), sorted by name.
func (c *Catalog) Search(query string) []*Object {
	q := strings.ToLower(query)
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Object
	for _, obj := range c.objects {
		hit := strings.Contains(strings.ToLower(obj.Name), q)
		if !hit {
			for _, col := range obj.Schema.Columns() {
				if strings.Contains(strings.ToLower(col.Name), q) {
					hit = true
					break
				}
			}
		}
		if hit {
			out = append(out, obj)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Remove unpublishes an object; only the owning dashboard may do so.
func (c *Catalog) Remove(dashboard, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.objects[name]
	if !ok {
		return fmt.Errorf("share: %q is not published", name)
	}
	if o.Dashboard != dashboard {
		return fmt.Errorf("share: %q is owned by dashboard %q", name, o.Dashboard)
	}
	if c.journal != nil {
		if err := c.journal(Entry{Kind: EntryRemove, Name: name}); err != nil {
			return fmt.Errorf("share: journal remove %q: %w", name, err)
		}
	}
	delete(c.objects, name)
	delete(c.lastUsed, name)
	c.setGaugeLocked()
	return nil
}
