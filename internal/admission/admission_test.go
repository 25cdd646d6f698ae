package admission

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shareinsights/internal/obs"
)

// acquireOK admits and fails the test on any error.
func acquireOK(t *testing.T, g *Gate, tenant string) func() {
	t.Helper()
	release, err := g.Acquire(context.Background(), tenant)
	if err != nil {
		t.Fatalf("Acquire(%q): %v", tenant, err)
	}
	return release
}

func TestGateZeroConfigAdmitsEverything(t *testing.T) {
	g := NewGate(Config{})
	for i := 0; i < 100; i++ {
		release := acquireOK(t, g, "")
		defer release()
	}
	if st := g.Stats(); st.InFlight != 100 {
		t.Fatalf("inflight = %d, want 100", st.InFlight)
	}
}

func TestGateShedsWhenQueueFull(t *testing.T) {
	g := NewGate(Config{MaxInFlight: 1, QueueDepth: 0})
	release := acquireOK(t, g, "")
	defer release()
	_, err := g.Acquire(context.Background(), "")
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedQueueFull {
		t.Fatalf("err = %v, want queue_full shed", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("shed has no Retry-After hint: %+v", shed)
	}
}

func TestGateQueueIsFIFO(t *testing.T) {
	g := NewGate(Config{MaxInFlight: 1, QueueDepth: 8})
	release := acquireOK(t, g, "")

	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := g.Acquire(context.Background(), "")
			if err != nil {
				t.Errorf("queued acquire %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			rel()
		}()
		// Serialize enqueue order so FIFO is observable.
		waitFor(t, func() bool { return g.Stats().Queued == i+1 })
	}
	release()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v is not FIFO", order)
		}
	}
	if st := g.Stats(); st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("gate not drained: %+v", st)
	}
}

// TestGateCanceledWaiterReleasesSlot is the client-disconnect
// contract: a queued request whose context dies must give up its queue
// position, and — in the race where a slot was granted concurrently —
// pass the slot on rather than leak it.
func TestGateCanceledWaiterReleasesSlot(t *testing.T) {
	g := NewGate(Config{MaxInFlight: 1, QueueDepth: 4})
	release := acquireOK(t, g, "")

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := g.Acquire(ctx, "")
		errc <- err
	}()
	waitFor(t, func() bool { return g.Stats().Queued == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
	}
	waitFor(t, func() bool { return g.Stats().Queued == 0 })

	// The slot is still usable: release the holder, re-acquire.
	release()
	rel2 := acquireOK(t, g, "")
	rel2()
	if st := g.Stats(); st.InFlight != 0 {
		t.Fatalf("slot leaked: %+v", st)
	}
}

// TestGateCancelGrantRace drives the cancel/grant race hard: waiters
// are canceled at the same moment releases hand them slots. However
// the race lands, no slot may leak — the gate must end fully drained
// and still admit MaxInFlight requests.
func TestGateCancelGrantRace(t *testing.T) {
	g := NewGate(Config{MaxInFlight: 2, QueueDepth: 64})
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			go cancel() // races with a concurrent grant
			release, err := g.Acquire(ctx, "")
			if err == nil {
				release()
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool {
		st := g.Stats()
		return st.InFlight == 0 && st.Queued == 0
	})
	r1, r2 := acquireOK(t, g, ""), acquireOK(t, g, "")
	r1()
	r2()
}

func TestGateQueueTimeout(t *testing.T) {
	g := NewGate(Config{MaxInFlight: 1, QueueDepth: 4, QueueTimeout: 20 * time.Millisecond})
	release := acquireOK(t, g, "")
	defer release()
	_, err := g.Acquire(context.Background(), "")
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedQueueTimeout {
		t.Fatalf("err = %v, want queue_timeout shed", err)
	}
	if st := g.Stats(); st.Queued != 0 {
		t.Fatalf("timed-out waiter still queued: %+v", st)
	}
}

func TestTenantTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	g := NewGate(Config{TenantRPS: 1, TenantBurst: 2, Now: func() time.Time { return now }})

	// The burst admits immediately; the next request sheds with the
	// time to the next token as its Retry-After hint.
	acquireOK(t, g, "a")()
	acquireOK(t, g, "a")()
	_, err := g.Acquire(context.Background(), "a")
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedTenantRate {
		t.Fatalf("err = %v, want tenant_rate shed", err)
	}
	if shed.RetryAfter < 500*time.Millisecond || shed.RetryAfter > time.Second {
		t.Fatalf("Retry-After = %s, want ~1s (time to next token)", shed.RetryAfter)
	}
	// Another tenant is unaffected.
	acquireOK(t, g, "b")()
	// Advancing the clock refills the bucket.
	now = now.Add(1500 * time.Millisecond)
	acquireOK(t, g, "a")()
}

// TestTenantIsolation is the acceptance criterion: a hot tenant
// saturating its own quota and rate never blocks a well-behaved one.
func TestTenantIsolation(t *testing.T) {
	g := NewGate(Config{
		MaxInFlight:       16,
		QueueDepth:        16,
		TenantRPS:         1000, // rate effectively unlimited here
		TenantBurst:       1000,
		TenantMaxInFlight: 2,
	})
	// The hot tenant pins its whole quota and keeps hammering.
	hold1 := acquireOK(t, g, "hot")
	hold2 := acquireOK(t, g, "hot")
	defer hold1()
	defer hold2()
	var hotSheds atomic.Int64
	for i := 0; i < 50; i++ {
		if _, err := g.Acquire(context.Background(), "hot"); err != nil {
			var shed *ShedError
			if !errors.As(err, &shed) || shed.Reason != ShedTenantQuota {
				t.Fatalf("hot tenant err = %v, want tenant_quota shed", err)
			}
			hotSheds.Add(1)
		}
	}
	if hotSheds.Load() != 50 {
		t.Fatalf("hot tenant sheds = %d, want 50", hotSheds.Load())
	}
	// The polite tenant sails through: the hot tenant's quota sheds
	// never consumed global slots or queue positions.
	for i := 0; i < 20; i++ {
		acquireOK(t, g, "polite")()
	}
}

func TestGateMetrics(t *testing.T) {
	m := obs.NewRegistry()
	g := NewGate(Config{MaxInFlight: 1, QueueDepth: 0, Metrics: m})
	release := acquireOK(t, g, "")
	g.Acquire(context.Background(), "") // sheds queue_full
	release()

	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"si_admission_admitted_total 1",
		`si_admission_shed_total{reason="queue_full"} 1`,
		"si_admission_inflight 0",
		"si_admission_queued 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGateReleaseIsIdempotent(t *testing.T) {
	g := NewGate(Config{MaxInFlight: 2})
	release := acquireOK(t, g, "")
	release()
	release() // must not double-decrement
	if st := g.Stats(); st.InFlight != 0 {
		t.Fatalf("inflight = %d after double release, want 0", st.InFlight)
	}
	r1, r2 := acquireOK(t, g, ""), acquireOK(t, g, "")
	if st := g.Stats(); st.InFlight != 2 {
		t.Fatalf("inflight = %d, want 2", st.InFlight)
	}
	r1()
	r2()
}

func TestBudget(t *testing.T) {
	if NewBudget(0, 0) != nil {
		t.Fatal("NewBudget(0,0) should be nil (no accounting)")
	}
	var nilB *Budget
	if err := nilB.Charge(1<<40, 1<<40); err != nil {
		t.Fatalf("nil budget charged: %v", err)
	}

	b := NewBudget(100, 1000)
	if err := b.Charge(60, 400); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := b.Charge(60, 0)
	var be *BudgetError
	if !errors.As(err, &be) || be.Kind != "rows" {
		t.Fatalf("err = %v, want rows budget error", err)
	}
	b2 := NewBudget(0, 1000)
	if err := b2.Charge(1<<30, 500); err != nil {
		t.Fatalf("rows unlimited: %v", err)
	}
	if err := b2.Charge(0, 501); err == nil {
		t.Fatal("bytes over budget not detected")
	}
	if rows, bytes := b2.rows.Load(), b2.bytes.Load(); rows != 1<<30 || bytes != 1001 {
		t.Fatalf("charged %d rows, %d bytes", rows, bytes)
	}
}

func TestBudgetConcurrent(t *testing.T) {
	b := NewBudget(1000, 0)
	var over atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if err := b.Charge(1, 0); err != nil {
					over.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	// 8000 rows charged against a 1000-row budget: exactly 7000
	// charges land over the limit.
	if over.Load() != 7000 {
		t.Fatalf("over-budget charges = %d, want 7000", over.Load())
	}
}

// waitFor polls cond with a deadline; scheduling-dependent state
// (queue membership of a goroutine) cannot be asserted synchronously.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
