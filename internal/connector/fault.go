package connector

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
)

// FaultConfig configures injected failures. Deterministic knobs
// (FailFirst, FailEvery) drive the test matrix; ErrorRate exercises
// probabilistic chaos with a seeded generator.
type FaultConfig struct {
	// FailFirst fails the first N calls with a transient error, then
	// passes through — the "flaky source recovers after N retries"
	// scenario.
	FailFirst int
	// FailEvery fails every Nth call (1 = always).
	FailEvery int
	// ErrorRate fails calls with this probability in [0, 1), drawn from
	// a generator seeded with Seed.
	ErrorRate float64
	// Seed seeds the ErrorRate generator (deterministic chaos runs).
	Seed int64
	// Latency is added before every call.
	Latency time.Duration
	// Hang blocks calls until the context is canceled — the pathological
	// stuck source. Protocols wrapped this way never return data.
	Hang bool
	// ShortRead truncates successful payloads to at most N bytes when
	// > 0, simulating broken transfers.
	ShortRead int
	// Err overrides the injected error (default: a generic transient
	// fault).
	Err error
}

// faultCore is the shared call-counting and failure decision.
type faultCore struct {
	cfg   FaultConfig
	calls atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

func newFaultCore(cfg FaultConfig) *faultCore {
	c := &faultCore{cfg: cfg}
	if cfg.ErrorRate > 0 {
		c.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return c
}

// Calls reports how many calls were attempted (tests assert retry
// counts against it).
func (c *faultCore) Calls() int { return int(c.calls.Load()) }

func (c *faultCore) fail(n int64) bool {
	if n <= int64(c.cfg.FailFirst) {
		return true
	}
	if c.cfg.FailEvery > 0 && n%int64(c.cfg.FailEvery) == 0 {
		return true
	}
	if c.rng != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.rng.Float64() < c.cfg.ErrorRate
	}
	return false
}

func (c *faultCore) err(what string, n int64) error {
	if c.cfg.Err != nil {
		return c.cfg.Err
	}
	return fmt.Errorf("fault injection: %s %d failed", what, n)
}

// before applies latency and hangs, honoring ctx.
func (c *faultCore) before(ctx context.Context) error {
	if c.cfg.Hang {
		<-ctx.Done()
		return ctx.Err()
	}
	if c.cfg.Latency > 0 {
		t := time.NewTimer(c.cfg.Latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// FaultProtocol wraps a Protocol with configurable fault injection:
// error rates, added latency, hangs and short reads. It registers
// through the ordinary extension API (RegisterProtocol) like any user
// connector, so the retry/breaker/degradation matrix is tested through
// exactly the path user connectors use.
type FaultProtocol struct {
	*faultCore
	inner Protocol
}

// NewFaultProtocol wraps inner with fault injection.
func NewFaultProtocol(inner Protocol, cfg FaultConfig) *FaultProtocol {
	return &FaultProtocol{faultCore: newFaultCore(cfg), inner: inner}
}

// Fetch implements Protocol.
func (p *FaultProtocol) Fetch(d *flowfile.DataDef) ([]byte, error) {
	return p.FetchContext(context.Background(), d)
}

// FetchContext implements ProtocolContext.
func (p *FaultProtocol) FetchContext(ctx context.Context, d *flowfile.DataDef) ([]byte, error) {
	n := p.calls.Add(1)
	if err := p.before(ctx); err != nil {
		return nil, err
	}
	if p.fail(n) {
		return nil, p.err("fetch", n)
	}
	b, err := fetch(ctx, p.inner, d)
	if err != nil {
		return nil, err
	}
	if p.cfg.ShortRead > 0 && len(b) > p.cfg.ShortRead {
		b = b[:p.cfg.ShortRead]
	}
	return b, nil
}

// FaultFormat wraps a Format with the same failure decisions, for
// exercising decode-stage errors.
type FaultFormat struct {
	*faultCore
	inner Format
}

// NewFaultFormat wraps inner with fault injection.
func NewFaultFormat(inner Format, cfg FaultConfig) *FaultFormat {
	return &FaultFormat{faultCore: newFaultCore(cfg), inner: inner}
}

// Decode implements Format.
func (f *FaultFormat) Decode(d *flowfile.DataDef, s *schema.Schema, payload []byte) (*table.Table, error) {
	n := f.calls.Add(1)
	if f.fail(n) {
		return nil, f.err("decode", n)
	}
	if f.cfg.ShortRead > 0 && len(payload) > f.cfg.ShortRead {
		payload = payload[:f.cfg.ShortRead]
	}
	return f.inner.Decode(d, s, payload)
}
