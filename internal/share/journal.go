package share

import (
	"fmt"
	"sort"

	"shareinsights/internal/obs"
)

// Entry kinds journaled by a Catalog.
const (
	// EntryPublish records an object publish (full table content).
	EntryPublish = "publish"
	// EntryRemove records an unpublish or a capacity eviction.
	EntryRemove = "remove"
)

// Entry is one journalable catalog mutation.
type Entry struct {
	Kind   string
	Object *Object // publish
	Name   string  // remove
}

// SetJournal installs a write-ahead hook: mutations are passed to fn
// before they are installed and aborted if fn fails. The hook runs under
// the catalog's lock, so it must not call back into this catalog.
func (c *Catalog) SetJournal(fn func(Entry) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = fn
}

// SetLimit caps how many objects the catalog holds; 0 means unbounded.
// When a new publish would exceed the cap, the least-recently-used
// objects are evicted.
func (c *Catalog) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
	c.evictOverLimitLocked("")
	c.setGaugeLocked()
}

// catalogMetrics holds the catalog's instruments.
type catalogMetrics struct {
	objects   *obs.Gauge
	evictions *obs.Counter
}

// SetMetrics registers the si_share_* instruments on reg.
func (c *Catalog) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met = &catalogMetrics{
		objects:   reg.Gauge("si_share_objects", "Published data objects currently in the shared catalog."),
		evictions: reg.Counter("si_share_evictions_total", "Published objects evicted by the catalog capacity limit."),
	}
	c.met.objects.Set(float64(len(c.objects)))
}

// Apply installs a journaled mutation, used for replay during recovery
// and for maintaining shadow replicas. It does not invoke the journal
// and ignores the capacity limit (the journal already reflects any
// evictions as removes).
func (c *Catalog) Apply(e Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e.Kind {
	case EntryPublish:
		if e.Object == nil {
			return fmt.Errorf("share: publish entry without object")
		}
		o := *e.Object
		c.objects[o.Name] = &o
		c.touchLocked(o.Name)
	case EntryRemove:
		delete(c.objects, e.Name)
		delete(c.lastUsed, e.Name)
	default:
		return fmt.Errorf("share: unknown journal entry kind %q", e.Kind)
	}
	c.setGaugeLocked()
	return nil
}

// Objects exports every published object sorted by name, for
// snapshotting. Object structs are copied; schema and table payloads
// are shared.
func (c *Catalog) Objects() []*Object {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Object, 0, len(c.objects))
	for _, o := range c.objects {
		copied := *o
		out = append(out, &copied)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Len reports how many objects are published.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.objects)
}
