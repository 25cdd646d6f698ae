package dashboard

import (
	"strings"
	"sync"

	"shareinsights/internal/table"
)

// SourceCache keeps, per (dashboard, source), the last table a successful
// run loaded while the source declared `on_error: stale`: the "last good"
// snapshot it serves when its connector fails. No other source is kept.
// It lives on the Platform, not the Dashboard, because the server
// recompiles dashboards on every flow-file save: the snapshot must
// survive recompilation to be useful.
type SourceCache struct {
	mu      sync.Mutex
	entries map[string]*table.Table
	journal func(dash, source string, t *table.Table) error
}

// NewSourceCache returns an empty cache.
func NewSourceCache() *SourceCache {
	return &SourceCache{entries: map[string]*table.Table{}}
}

// SetJournal installs a write-ahead hook invoked before each Put so the
// last-good snapshots survive restarts (`on_error: stale` across
// processes). A journal failure does NOT abort the Put: the cache is an
// availability feature, so serving the freshest table in memory beats
// losing it — durability of the entry is best-effort.
func (c *SourceCache) SetJournal(fn func(dash, source string, t *table.Table) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = fn
}

// Lookup returns the last-good table for a (dashboard, source) pair.
func (c *SourceCache) Lookup(dash, source string) (*table.Table, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.entries[dash+"\x00"+source]
	return t, ok
}

// Put records a source's last successfully loaded table, journaling it
// first when a journal is installed.
func (c *SourceCache) Put(dash, source string, t *table.Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal != nil {
		// Best-effort; see SetJournal.
		_ = c.journal(dash, source, t)
	}
	c.entries[dash+"\x00"+source] = t
}

// Seed installs a recovered entry without journaling it (replay).
func (c *SourceCache) Seed(dash, source string, t *table.Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[dash+"\x00"+source] = t
}

// Reset drops every cached entry, keeping the journal hook. A replica
// applying a full bootstrap snapshot resets first so entries absent
// from the snapshot do not linger (docs/REPLICATION.md).
func (c *SourceCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*table.Table{}
}

// Each visits every cached entry (snapshot export).
func (c *SourceCache) Each(fn func(dash, source string, t *table.Table)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, t := range c.entries {
		dash, source, _ := strings.Cut(k, "\x00")
		fn(dash, source, t)
	}
}

// SourceHealth reports one source's outcome in the last run.
type SourceHealth struct {
	// Name is the data-object name.
	Name string `json:"name"`
	// Status is "ok", "stale" (served the last-good snapshot) or
	// "empty" (served a schema-conforming empty table).
	Status string `json:"status"`
	// Mode is the configured on_error policy: fail, stale or empty.
	Mode string `json:"mode"`
	// Attempts counts connector fetch attempts (retries = attempts-1).
	Attempts int `json:"attempts"`
	// Error is the suppressed load error when degraded ("" when ok).
	Error string `json:"error,omitempty"`
}

// RunHealth summarizes the last run for GET /dashboards/{name}/health.
type RunHealth struct {
	// Status is "ok", "degraded" (completed but at least one source
	// served fallback data), "error" (the run failed) or "never-run".
	Status string `json:"status"`
	// Error is the run error when Status is "error".
	Error string `json:"error,omitempty"`
	// Retries totals connector retry attempts across sources.
	Retries int `json:"retries"`
	// Sources details every source's outcome, in graph order.
	Sources []SourceHealth `json:"sources,omitempty"`
}

// Degraded reports whether the run completed on fallback data.
func (h RunHealth) Degraded() bool { return h.Status == "degraded" }

// Health returns the last run's health summary. Before the first run
// the status is "never-run".
func (d *Dashboard) Health() RunHealth {
	if d.health.Status == "" {
		return RunHealth{Status: "never-run"}
	}
	return d.health
}
