package dashboard

import (
	"sync"

	"shareinsights/internal/table"
)

// ResultCache memoizes produced data objects across dashboard runs,
// keyed by content signature (dag.Graph.Signatures): a node whose
// pipeline, task configurations and inputs are unchanged is served from
// the cache instead of recomputed.
//
// This is the single-dashboard counterpart of the flow-file-group
// benefit in §4.5.3: "teams building interactive dashboards on processed
// data can get extremely quick feedback to changes in the flow file (as
// long running data pipelines will not be executed when the flow file is
// saved)". With the cache on the platform, saving a flow file and
// re-running recomputes only the entities the edit actually touched.
type ResultCache struct {
	mu      sync.Mutex
	entries map[string]cacheEntry
	// MaxEntries bounds the cache; 0 means DefaultCacheEntries. When the
	// bound is exceeded the cache is cleared wholesale — crude, but
	// correct, and edits rarely touch more than a handful of nodes
	// between clears.
	MaxEntries int
}

// DefaultCacheEntries bounds a ResultCache with MaxEntries == 0.
const DefaultCacheEntries = 512

type cacheEntry struct {
	sig string
	t   *table.Table
}

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	return &ResultCache{entries: map[string]cacheEntry{}}
}

func (c *ResultCache) lookup(dash, node, sig string) (*table.Table, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[dash+"\x00"+node]
	if !ok || e.sig != sig {
		return nil, false
	}
	return e.t, true
}

func (c *ResultCache) store(dash, node, sig string, t *table.Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	limit := c.MaxEntries
	if limit <= 0 {
		limit = DefaultCacheEntries
	}
	if len(c.entries) >= limit {
		c.entries = map[string]cacheEntry{}
	}
	c.entries[dash+"\x00"+node] = cacheEntry{sig: sig, t: t}
}

// Len reports the number of cached objects.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
