// Package connector loads data objects from their configured sources.
//
// A flow file's data detail block names a protocol (file, http, mem) and
// a payload format (csv, tsv, json, jsonl, xml, sbin); the platform
// "provides popular protocol connectors … and recognizes popular data
// payload formats" (§3.2) and both sets are extensible through the same
// registration API user connectors use (§4.2).
package connector

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/obs"
	"shareinsights/internal/resilience"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
)

// Protocol fetches the raw payload for a data definition.
type Protocol interface {
	// Fetch returns the payload bytes for the data object's source.
	Fetch(d *flowfile.DataDef) ([]byte, error)
}

// ProtocolContext is the context-aware fetch path. Protocols that
// implement it honor cancellation and per-attempt deadlines; plain
// Protocol implementations keep working through an adapter that runs
// the blocking Fetch on a goroutine and abandons it when the context
// ends.
type ProtocolContext interface {
	// FetchContext is Fetch bounded by ctx.
	FetchContext(ctx context.Context, d *flowfile.DataDef) ([]byte, error)
}

// fetch dispatches to the context-aware path when the protocol has one.
// For legacy protocols the blocking Fetch runs on its own goroutine so
// a hung source cannot outlive the caller's deadline — the goroutine is
// abandoned (its result dropped) when ctx ends first.
func fetch(ctx context.Context, p Protocol, d *flowfile.DataDef) ([]byte, error) {
	if pc, ok := p.(ProtocolContext); ok {
		return pc.FetchContext(ctx, d)
	}
	if ctx.Done() == nil {
		return p.Fetch(d)
	}
	type result struct {
		b   []byte
		err error
	}
	ch := make(chan result, 1)
	go func() {
		b, err := p.Fetch(d)
		ch <- result{b, err}
	}()
	select {
	case r := <-ch:
		return r.b, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Format decodes payload bytes into a table conforming to the declared
// schema.
type Format interface {
	// Decode parses the payload. The returned table's schema must equal s.
	Decode(d *flowfile.DataDef, s *schema.Schema, payload []byte) (*table.Table, error)
}

// Registry resolves protocols and formats for data definitions, and
// applies the platform's fetch resilience policy: retry with backoff,
// per-(protocol,source) circuit breakers, and per-attempt deadlines.
type Registry struct {
	mu        sync.RWMutex
	protocols map[string]Protocol
	formats   map[string]Format
	retry     resilience.Policy
	breakers  *resilience.BreakerSet
	maxBytes  int64
	metrics   *obs.Registry
}

// Options configure the default registry.
type Options struct {
	// DataDir roots the file protocol; relative sources resolve inside
	// it (the per-dashboard 'data' folder of §4.3.2). Empty disables the
	// file protocol.
	DataDir string
	// Mem seeds the in-process protocol: source "mem:<key>" (or just the
	// key) resolves here. Tests and examples use it.
	Mem map[string][]byte
	// HTTPClient overrides the client used by the http protocol.
	HTTPClient *http.Client
	// MaxPayloadBytes caps fetched response bodies so one misbehaving
	// source cannot OOM the process. 0 means DefaultMaxPayloadBytes;
	// negative disables the cap.
	MaxPayloadBytes int64
	// Retry is the default retry policy applied to source fetches.
	// The zero value (every field unset) means resilience.Defaults();
	// per-source `retries` and `timeout` data-detail properties
	// override it.
	Retry resilience.Policy
	// Breaker tunes the per-(protocol,source) circuit breakers.
	Breaker resilience.BreakerConfig
}

// DefaultMaxPayloadBytes bounds fetched payloads when Options leaves
// MaxPayloadBytes at 0.
const DefaultMaxPayloadBytes = 64 << 20

// sharedTransport is the connection pool behind every registry's
// default HTTP client. One process-wide transport means repeated pulls
// from the same endpoint — every dashboard run re-reads its sources —
// reuse warm connections instead of paying a fresh TCP/TLS handshake
// per call, and idle connections are capped and reaped so the pool
// cannot grow without bound. Registries built with Options.HTTPClient
// keep whatever transport that client carries.
var sharedTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 64
	t.MaxIdleConnsPerHost = 16
	t.IdleConnTimeout = 90 * time.Second
	return t
}()

// NewRegistry builds a registry with the platform connectors and formats
// installed.
func NewRegistry(opts Options) *Registry {
	retry := opts.Retry
	if retry.MaxRetries == 0 && retry.BaseDelay == 0 && retry.MaxDelay == 0 &&
		retry.AttemptTimeout == 0 && retry.Sleep == nil && retry.Rand == nil {
		retry = resilience.Defaults()
	}
	maxBytes := opts.MaxPayloadBytes
	if maxBytes == 0 {
		maxBytes = DefaultMaxPayloadBytes
	}
	r := &Registry{
		protocols: map[string]Protocol{},
		formats:   map[string]Format{},
		retry:     retry,
		breakers:  resilience.NewBreakerSet(opts.Breaker),
		maxBytes:  maxBytes,
	}
	if opts.DataDir != "" {
		r.protocols["file"] = &fileProtocol{root: opts.DataDir}
	}
	client := opts.HTTPClient
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second, Transport: sharedTransport}
	}
	r.protocols["http"] = &httpProtocol{client: client, maxBytes: maxBytes}
	r.protocols["https"] = &httpProtocol{client: client, maxBytes: maxBytes}
	r.protocols["mem"] = &memProtocol{data: opts.Mem}
	for name, f := range map[string]Format{
		"csv":   &csvFormat{},
		"tsv":   &csvFormat{sep: '\t'},
		"json":  &jsonFormat{},
		"jsonl": &jsonFormat{lines: true},
		"xml":   &xmlFormat{},
		"sbin":  &sbinFormat{},
	} {
		r.formats[name] = f
	}
	return r
}

// RegisterProtocol installs a user connector for a protocol scheme.
func (r *Registry) RegisterProtocol(name string, p Protocol) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.protocols[name]; dup {
		return fmt.Errorf("connector: protocol %q already registered", name)
	}
	r.protocols[name] = p
	return nil
}

// RegisterFormat installs a user payload format.
func (r *Registry) RegisterFormat(name string, f Format) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.formats[name]; dup {
		return fmt.Errorf("connector: format %q already registered", name)
	}
	r.formats[name] = f
	return nil
}

// Protocols lists installed protocol names, sorted.
func (r *Registry) Protocols() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.protocols))
	for n := range r.protocols {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Formats lists installed format names, sorted.
func (r *Registry) Formats() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.formats))
	for n := range r.formats {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// protocolFor picks the protocol: an explicit `protocol:` property wins,
// then the source URL scheme, then file.
func (r *Registry) protocolFor(d *flowfile.DataDef) (Protocol, string, error) {
	name := d.Prop("protocol")
	if name == "" {
		src := d.Prop("source")
		if i := strings.Index(src, "://"); i > 0 {
			name = src[:i]
		} else if i := strings.Index(src, ":"); i > 0 && !strings.Contains(src[:i], "/") && !strings.Contains(src[:i], ".") {
			name = src[:i]
		} else {
			name = "file"
		}
	}
	r.mu.RLock()
	p, ok := r.protocols[name]
	r.mu.RUnlock()
	if !ok {
		return nil, "", fmt.Errorf("connector: D.%s: no protocol %q (have %s)", d.Name, name, strings.Join(r.Protocols(), ", "))
	}
	return p, name, nil
}

// formatFor picks the format: explicit `format:` property, then source
// extension, then csv.
func (r *Registry) formatFor(d *flowfile.DataDef) (Format, string, error) {
	name := strings.ToLower(d.Prop("format"))
	if name == "" {
		ext := strings.TrimPrefix(strings.ToLower(filepath.Ext(d.Prop("source"))), ".")
		if ext != "" {
			name = ext
		} else {
			name = "csv"
		}
	}
	if name == "txt" {
		name = "csv"
	}
	r.mu.RLock()
	f, ok := r.formats[name]
	r.mu.RUnlock()
	if !ok {
		return nil, "", fmt.Errorf("connector: D.%s: no format %q (have %s)", d.Name, name, strings.Join(r.Formats(), ", "))
	}
	return f, name, nil
}

// Decode is DecodePushdown with an empty offer.
func (r *Registry) Decode(d *flowfile.DataDef, s *schema.Schema, payload []byte) (*table.Table, error) {
	t, _, err := r.DecodePushdown(d, s, payload, Pushdown{})
	return t, err
}

// SetMetrics attaches a metrics registry: retry counts and breaker
// state transitions are recorded against it (si_source_retries_total,
// si_breaker_transitions_total). The server wires the platform registry
// here; nil detaches.
func (r *Registry) SetMetrics(m *obs.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = m
	if m == nil {
		r.breakers.SetOnTransition(nil)
		return
	}
	r.breakers.SetOnTransition(func(key string, from, to resilience.State) {
		proto, _, _ := strings.Cut(key, "\x00")
		m.CounterVec("si_breaker_transitions_total",
			"Connector circuit-breaker state transitions.", "protocol", "to").
			With(proto, to.String()).Inc()
	})
}

// SetRetryPolicy replaces the registry's default fetch retry policy
// (the CLI's -retries/-timeout flags land here).
func (r *Registry) SetRetryPolicy(p resilience.Policy) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retry = p
}

// RetryPolicy returns the registry's default fetch retry policy.
func (r *Registry) RetryPolicy() resilience.Policy {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.retry
}

// Breakers exposes the per-(protocol,source) circuit-breaker set
// (health reporting and tests).
func (r *Registry) Breakers() *resilience.BreakerSet { return r.breakers }

// LoadStats reports what one Load actually did.
type LoadStats struct {
	// Attempts is how many fetch attempts ran (retries = Attempts-1 on
	// success).
	Attempts int
	// Protocol is the resolved protocol name.
	Protocol string
}

// policyFor derives the effective retry policy for one data object:
// the registry default overridden by the `retries` and `timeout`
// data-detail properties.
func (r *Registry) policyFor(d *flowfile.DataDef) resilience.Policy {
	p := r.RetryPolicy()
	if v := d.Prop("retries"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			p.MaxRetries = n
		}
	}
	if v := d.Prop("timeout"); v != "" {
		if dur, err := time.ParseDuration(v); err == nil && dur > 0 {
			p.AttemptTimeout = dur
		}
	}
	return p
}

// LoadContext fetches and decodes a data object under ctx — the
// definition must declare a schema (the explicit schema call-out of
// §3.2) — opening one span for the protocol fetch and one for the payload
// decode under parent on tr (nil traces nothing), and applying the
// fetch resilience policy: the source's circuit breaker is consulted
// first (an open breaker fails fast without touching the source), then
// the fetch runs under the retry policy — exponential backoff with full
// jitter, Retry-After hints honored, permanent errors not retried —
// with each attempt bounded by the per-source `timeout` property when
// set. Breaker outcomes and retry counts feed the attached metrics
// registry and the returned LoadStats. It is LoadPushdownContext with
// an empty offer: both paths share one fetch/decode sequence, which is
// what keeps pushdown-on and pushdown-off runs byte-identical in their
// retry and breaker behavior.
func (r *Registry) LoadContext(ctx context.Context, d *flowfile.DataDef, s *schema.Schema, tr obs.Tracer, parent int) (*table.Table, LoadStats, error) {
	t, stats, _, err := r.LoadPushdownContext(ctx, d, s, Pushdown{}, tr, parent)
	return t, stats, err
}

// Metrics returns the attached metrics registry (nil when none).
func (r *Registry) Metrics() *obs.Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.metrics
}

// ---------------------------------------------------------------------
// Protocols

// fileProtocol reads sources from the dashboard's data directory,
// refusing paths that escape it.
type fileProtocol struct{ root string }

func (p *fileProtocol) Fetch(d *flowfile.DataDef) ([]byte, error) {
	src := strings.TrimPrefix(d.Prop("source"), "file://")
	if src == "" {
		return nil, fmt.Errorf("no source configured")
	}
	full := filepath.Join(p.root, filepath.Clean("/"+src))
	rootAbs, err := filepath.Abs(p.root)
	if err != nil {
		return nil, err
	}
	fullAbs, err := filepath.Abs(full)
	if err != nil {
		return nil, err
	}
	if fullAbs != rootAbs && !strings.HasPrefix(fullAbs, rootAbs+string(filepath.Separator)) {
		return nil, fmt.Errorf("source %q escapes the data directory", src)
	}
	return os.ReadFile(fullAbs)
}

// httpProtocol fetches provider APIs (Figure 6), forwarding configured
// http_headers.* properties. It is hardened for untrusted sources:
// non-2xx responses are errors carrying the status and a body snippet,
// response bodies are capped so a misbehaving source cannot OOM the
// process, client errors are marked permanent (no retry), and 429/503
// Retry-After headers become backoff hints for the retry policy.
type httpProtocol struct {
	client   *http.Client
	maxBytes int64
}

func (p *httpProtocol) Fetch(d *flowfile.DataDef) ([]byte, error) {
	return p.FetchContext(context.Background(), d)
}

// FetchContext implements ProtocolContext: the request carries ctx, so
// cancellation and deadlines abort the transfer mid-flight.
func (p *httpProtocol) FetchContext(ctx context.Context, d *flowfile.DataDef) ([]byte, error) {
	src := d.Prop("source")
	method := strings.ToUpper(d.Prop("request_type"))
	if method == "" {
		method = http.MethodGet
	}
	req, err := http.NewRequestWithContext(ctx, method, src, nil)
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	for _, k := range d.PropOrder {
		if strings.HasPrefix(k, "http_headers.") {
			req.Header.Set(strings.TrimPrefix(k, "http_headers."), d.Props[k])
		}
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		serr := fmt.Errorf("%s %s: status %s: %s", method, src, resp.Status,
			strings.TrimSpace(string(snippet)))
		switch {
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			if after := parseRetryAfter(resp.Header.Get("Retry-After")); after > 0 {
				return nil, resilience.RetryAfter(serr, after)
			}
			return nil, serr
		case resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusRequestTimeout:
			// A client error will not heal on retry.
			return nil, resilience.Permanent(serr)
		default:
			return nil, serr
		}
	}
	if p.maxBytes < 0 {
		return io.ReadAll(resp.Body)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, p.maxBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > p.maxBytes {
		return nil, resilience.Permanent(fmt.Errorf("%s %s: response exceeds the %d-byte payload cap", method, src, p.maxBytes))
	}
	return body, nil
}

// parseRetryAfter reads an HTTP Retry-After header: delta-seconds or an
// HTTP date. 0 means absent/unparseable.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// memProtocol serves payloads from an in-process map.
type memProtocol struct{ data map[string][]byte }

func (p *memProtocol) Fetch(d *flowfile.DataDef) ([]byte, error) {
	key := strings.TrimPrefix(strings.TrimPrefix(d.Prop("source"), "mem://"), "mem:")
	b, ok := p.data[key]
	if !ok {
		return nil, fmt.Errorf("mem source %q not found", key)
	}
	return b, nil
}
