package admission

import (
	"context"
	"strings"
	"sync"

	"shareinsights/internal/obs"
)

// Result-cache outcomes, reported by Do and surfaced to clients on the
// X-SI-Result-Cache response header.
const (
	// OutcomeHit marks a request served from a completed cache entry.
	OutcomeHit = "hit"
	// OutcomeMiss marks the request that led an execution (and, on
	// success, populated the cache).
	OutcomeMiss = "miss"
	// OutcomeFollow marks a request collapsed onto a concurrent
	// identical execution (singleflight): it waited for the leader's
	// result instead of running its own.
	OutcomeFollow = "follow"
)

// Cache is a bounded LRU with singleflight collapsing, the one type of
// both result-cache levels: the server's run results (ResultCache,
// through Do) and the dashboard node cache (through Get and Put). Keys
// encode everything a value depends on — for a run: flow-file revision,
// shared-input catalog generations, upload revision — so a publish,
// commit or upload naturally rotates the key; Invalidate additionally
// drops entries eagerly so a superseded value never lingers until
// eviction. It does not know what a dashboard is, keeping this package
// engine-agnostic like the rest of admission.
type Cache[V any] struct {
	limit int

	mu      sync.Mutex
	seq     int64
	entries map[string]*cacheEntry[V]
	flights map[string]*flight[V]
	stats   CacheStats

	mHits, mMisses, mCollapsed, mEvictions, mInvalidations *obs.Counter
	mEntries                                               *obs.Gauge
}

// ResultCache is the run-result level: values are opaque (any).
type ResultCache = Cache[any]

type cacheEntry[V any] struct {
	val  V
	seen int64 // LRU clock
}

// flight is one in-progress leader execution; followers wait on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewResultCache builds a run-result cache of at most limit entries.
func NewResultCache(limit int, m *obs.Registry) *ResultCache { return NewCache[any](limit, m) }

// NewCache builds a cache of at most limit entries (128 when limit <= 0).
// A non-nil m registers the si_result_cache_* metrics: one per registry.
func NewCache[V any](limit int, m *obs.Registry) *Cache[V] {
	if limit <= 0 {
		limit = 128
	}
	c := &Cache[V]{
		limit:   limit,
		entries: map[string]*cacheEntry[V]{},
		flights: map[string]*flight[V]{},
	}
	if m != nil {
		c.mHits = m.Counter("si_result_cache_hits_total", "Run requests served from the shared result cache.")
		c.mMisses = m.Counter("si_result_cache_misses_total", "Run requests that executed and (on success) populated the result cache.")
		c.mCollapsed = m.Counter("si_result_cache_collapsed_total", "Run requests collapsed onto a concurrent identical execution (singleflight).")
		c.mEvictions = m.Counter("si_result_cache_evictions_total", "Result-cache entries evicted by the LRU bound.")
		c.mInvalidations = m.Counter("si_result_cache_invalidations_total", "Result-cache entries dropped by explicit invalidation.")
		c.mEntries = m.Gauge("si_result_cache_entries", "Completed entries in the shared result cache.")
	}
	return c
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Get returns the value held under key and marks it recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(key)
}

// Put holds val under key, replacing a held value in place; a new key
// past the bound evicts the least recently used entry.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val)
}

// Do returns the cached value for key, or executes fn to produce it.
// Concurrent calls with the same key collapse: one leader runs fn, the
// rest wait for its result (outcome "follow"). A follower whose ctx
// dies returns ctx.Err() without disturbing the flight — the leader
// keeps running for everyone else. Failed executions are never cached.
func (c *Cache[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, string, error) {
	c.mu.Lock()
	if v, ok := c.getLocked(key); ok {
		c.stats.Hits++
		c.mu.Unlock()
		inc(c.mHits)
		return v, OutcomeHit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.stats.Collapsed++
		c.mu.Unlock()
		inc(c.mCollapsed)
		select {
		case <-f.done:
			return f.val, OutcomeFollow, f.err
		case <-ctx.Done():
			return *new(V), OutcomeFollow, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.stats.Misses++
	c.mu.Unlock()
	inc(c.mMisses)

	f.val, f.err = fn()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.putLocked(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, OutcomeMiss, f.err
}

func (c *Cache[V]) getLocked(key string) (v V, ok bool) {
	e, ok := c.entries[key]
	if ok {
		c.seq++
		e.seen, v = c.seq, e.val
	}
	return v, ok
}

func (c *Cache[V]) putLocked(key string, val V) {
	c.seq++
	if e, ok := c.entries[key]; ok {
		e.val, e.seen = val, c.seq
		return
	}
	c.entries[key] = &cacheEntry[V]{val: val, seen: c.seq}
	for len(c.entries) > c.limit {
		var oldest string
		var oldestSeen int64
		for k, e := range c.entries {
			if oldest == "" || e.seen < oldestSeen {
				oldest, oldestSeen = k, e.seen
			}
		}
		delete(c.entries, oldest)
		c.stats.Evictions++
		inc(c.mEvictions)
	}
	if c.mEntries != nil {
		c.mEntries.Set(float64(len(c.entries)))
	}
}

// Invalidate drops every completed entry whose key starts with prefix
// ("" drops all) and returns how many were dropped. In-progress
// flights are untouched: their result lands under a key the caller's
// mutation has already superseded, where the next Invalidate or the
// LRU bound collects it.
func (c *Cache[V]) Invalidate(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k := range c.entries {
		if strings.HasPrefix(k, prefix) {
			delete(c.entries, k)
			n++
		}
	}
	c.stats.Invalidations += int64(n)
	if n > 0 && c.mInvalidations != nil {
		c.mInvalidations.Add(int64(n))
	}
	if c.mEntries != nil {
		c.mEntries.Set(float64(len(c.entries)))
	}
	return n
}

// CacheStats is a point-in-time snapshot of the result cache for
// status surfaces (the ops meta-dashboard's cache panel).
type CacheStats struct {
	// Entries is the number of completed entries held.
	Entries int
	// Hits, Misses and Collapsed count Do outcomes cumulatively.
	Hits, Misses, Collapsed int64
	// Evictions and Invalidations count dropped entries cumulatively.
	Evictions, Invalidations int64
}

// Stats snapshots the cache.
func (c *Cache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	return st
}
