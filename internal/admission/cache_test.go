package admission

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestResultCacheHitAndMiss(t *testing.T) {
	c := NewResultCache(8, nil)
	calls := 0
	fn := func() (any, error) { calls++; return "result", nil }

	v, outcome, err := c.Do(context.Background(), "k", fn)
	if err != nil || v != "result" || outcome != OutcomeMiss {
		t.Fatalf("first Do = %v, %q, %v", v, outcome, err)
	}
	v, outcome, err = c.Do(context.Background(), "k", fn)
	if err != nil || v != "result" || outcome != OutcomeHit {
		t.Fatalf("second Do = %v, %q, %v", v, outcome, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
}

func TestResultCacheNeverCachesErrors(t *testing.T) {
	c := NewResultCache(8, nil)
	boom := errors.New("boom")
	_, _, err := c.Do(context.Background(), "k", func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	_, outcome, err := c.Do(context.Background(), "k", func() (any, error) { return "ok", nil })
	if err != nil || outcome != OutcomeMiss {
		t.Fatalf("retry after error = %q, %v; failures must not be cached", outcome, err)
	}
}

// TestResultCacheCollapse is the singleflight contract: N identical
// concurrent runs execute once; everyone gets the leader's result.
func TestResultCacheCollapse(t *testing.T) {
	c := NewResultCache(8, nil)
	var calls atomic.Int64
	started := make(chan struct{})
	unblock := make(chan struct{})
	fn := func() (any, error) {
		calls.Add(1)
		close(started)
		<-unblock
		return "shared", nil
	}

	var wg sync.WaitGroup
	outcomes := make([]string, 16)
	leaderGo := func() {
		defer wg.Done()
		v, outcome, err := c.Do(context.Background(), "k", fn)
		if err != nil || v != "shared" {
			t.Errorf("leader Do = %v, %v", v, err)
		}
		outcomes[0] = outcome
	}
	wg.Add(1)
	go leaderGo()
	<-started // leader is inside fn; the rest must collapse onto it
	for i := 1; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, outcome, err := c.Do(context.Background(), "k", func() (any, error) {
				t.Error("follower executed fn")
				return nil, nil
			})
			if err != nil || v != "shared" {
				t.Errorf("follower Do = %v, %v", v, err)
			}
			outcomes[i] = outcome
		}()
	}
	time.Sleep(10 * time.Millisecond) // let followers attach to the flight
	close(unblock)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times under concurrency, want 1", calls.Load())
	}
	if outcomes[0] != OutcomeMiss {
		t.Fatalf("leader outcome = %q", outcomes[0])
	}
	for i := 1; i < 16; i++ {
		if outcomes[i] != OutcomeFollow {
			t.Fatalf("follower %d outcome = %q, want follow", i, outcomes[i])
		}
	}
}

// TestResultCacheFollowerCancel: a follower whose context dies walks
// away with ctx.Err(); the leader's flight is undisturbed and still
// populates the cache.
func TestResultCacheFollowerCancel(t *testing.T) {
	c := NewResultCache(8, nil)
	started := make(chan struct{})
	unblock := make(chan struct{})
	go c.Do(context.Background(), "k", func() (any, error) {
		close(started)
		<-unblock
		return "late", nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, outcome, err := c.Do(ctx, "k", nil)
	if !errors.Is(err, context.Canceled) || outcome != OutcomeFollow {
		t.Fatalf("canceled follower = %q, %v", outcome, err)
	}

	close(unblock)
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader result never cached")
		}
		time.Sleep(time.Millisecond)
	}
	v, outcome, err := c.Do(context.Background(), "k", nil)
	if err != nil || v != "late" || outcome != OutcomeHit {
		t.Fatalf("post-cancel Do = %v, %q, %v", v, outcome, err)
	}
}

func TestResultCacheInvalidate(t *testing.T) {
	c := NewResultCache(8, nil)
	for _, k := range []string{"sales@1", "sales@2", "ops@1"} {
		k := k
		c.Do(context.Background(), k, func() (any, error) { return k, nil })
	}
	if n := c.Invalidate("sales@"); n != 2 {
		t.Fatalf("Invalidate dropped %d, want 2", n)
	}
	if _, outcome, _ := c.Do(context.Background(), "sales@1", func() (any, error) { return "fresh", nil }); outcome != OutcomeMiss {
		t.Fatalf("invalidated key outcome = %q, want miss", outcome)
	}
	if _, outcome, _ := c.Do(context.Background(), "ops@1", nil); outcome != OutcomeHit {
		t.Fatalf("unrelated key outcome = %q, want hit", outcome)
	}
}

func TestResultCacheInvalidateAll(t *testing.T) {
	c := NewResultCache(8, nil)
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("k%d", i)
		c.Do(context.Background(), k, func() (any, error) { return k, nil })
	}
	if n := c.Invalidate(""); n != 5 {
		t.Fatalf("Invalidate(\"\") dropped %d, want 5", n)
	}
	if c.Stats().Entries != 0 {
		t.Fatalf("Entries = %d after full invalidation", c.Stats().Entries)
	}
}

func TestResultCacheLRUBound(t *testing.T) {
	c := NewResultCache(2, nil)
	for _, k := range []string{"a", "b"} {
		k := k
		c.Do(context.Background(), k, func() (any, error) { return k, nil })
	}
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if _, outcome, _ := c.Do(context.Background(), "a", nil); outcome != OutcomeHit {
		t.Fatal("warm-up hit on a failed")
	}
	c.Do(context.Background(), "c", func() (any, error) { return "c", nil })
	if c.Stats().Entries != 2 {
		t.Fatalf("Entries = %d, want 2 (bounded)", c.Stats().Entries)
	}
	if _, outcome, _ := c.Do(context.Background(), "a", nil); outcome != OutcomeHit {
		t.Fatal("recently used entry evicted")
	}
	if _, outcome, _ := c.Do(context.Background(), "b", func() (any, error) { return "b", nil }); outcome != OutcomeMiss {
		t.Fatal("LRU entry survived past the bound")
	}
}

// TestResultCacheInvalidateDuringFlight: an invalidation racing an
// in-progress execution never resurrects — the flight's stale result
// may land in the cache under its old key, but a mutation that changes
// the key (the server encodes revisions into keys) makes it
// unreachable; a same-key invalidation after completion drops it.
func TestResultCacheInvalidateDuringFlight(t *testing.T) {
	c := NewResultCache(8, nil)
	started := make(chan struct{})
	unblock := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), "k@rev1", func() (any, error) {
			close(started)
			<-unblock
			return "stale", nil
		})
	}()
	<-started
	c.Invalidate("k@") // racing publish: nothing completed yet
	close(unblock)
	<-done
	// The new revision misses regardless of the stale entry.
	v, outcome, err := c.Do(context.Background(), "k@rev2", func() (any, error) { return "fresh", nil })
	if err != nil || v != "fresh" || outcome != OutcomeMiss {
		t.Fatalf("post-publish Do = %v, %q, %v", v, outcome, err)
	}
	c.Invalidate("k@")
	if c.Stats().Entries != 0 {
		t.Fatalf("stale flight entry survived invalidation: Entries = %d", c.Stats().Entries)
	}
}

// TestCacheBound holds the node level's bound on the shared type: Put
// never grows the cache past its limit, and replacing a held key never
// evicts another.
func TestCacheBound(t *testing.T) {
	c := NewCache[string](4, nil)
	for i := 0; i < 10; i++ {
		c.Put("d\x00"+strings.Repeat("n", i+1), "sig")
	}
	if c.Stats().Entries > 4 {
		t.Errorf("cache exceeded bound: %d", c.Stats().Entries)
	}

	// A cache exactly at its bound keeps its entries when a held key is
	// re-stored (a re-run of a cached dashboard): the bound is not exceeded.
	c = NewCache[string](4, nil)
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		c.Put("d\x00"+k, "sig")
	}
	c.Put("d\x00a", "sig2")
	if c.Stats().Entries != 4 {
		t.Errorf("re-storing a held key at the bound left %d entries, want 4", c.Stats().Entries)
	}
	for _, k := range keys[1:] {
		if sig, ok := c.Get("d\x00" + k); !ok || sig != "sig" {
			t.Errorf("key %s evicted by re-storing a held key", k)
		}
	}
	if sig, ok := c.Get("d\x00a"); !ok || sig != "sig2" {
		t.Error("re-stored key a does not hit under its new signature")
	}
}
