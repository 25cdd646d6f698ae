package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families — counters, gauges and fixed-bucket
// histograms — and writes them in Prometheus text exposition format.
// All updates are safe under concurrency: counters and gauges are
// single atomics, histogram buckets are per-bound atomics, and the
// registry locks only on family/series creation, never on update.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64 // histograms only

	mu     sync.RWMutex
	series map[string]series
}

type series interface {
	write(w io.Writer, name, labels string)
}

// appendKey appends the series key of label values vals, which doubles
// as the exposition label set. Values are escaped per the text format.
func (f *family) appendKey(b []byte, vals []string) []byte {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label value(s), got %d", f.name, len(f.labels), len(vals)))
	}
	for i, v := range vals {
		b = append(append(append(b, "{,"[min(i, 1)]), f.labels[i]...), `="`...)
		if strings.ContainsAny(v, "\\\n\"") {
			v = strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(v, `\`, `\\`), "\n", `\n`), `"`, `\"`)
		}
		b = append(append(b, v...), '"')
	}
	if len(vals) > 0 {
		b = append(b, '}')
	}
	return b
}

// with returns the series for one label-value combination, creating it
// with mk on first use. Finding a held series allocates nothing: the key
// is built on the stack (only a value the format escapes is copied), and
// only a new series stores it.
func (f *family) with(vals []string, mk func() series) series {
	key := f.appendKey(make([]byte, 0, 256), vals)
	f.mu.RLock()
	s, ok := f.series[string(key)]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[string(key)]; ok {
		return s
	}
	s = mk()
	f.series[string(key)] = s
	return s
}

// register fetches or creates a family, panicking on a type conflict —
// that is a programming error, not a runtime condition.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s with %d label(s)", name, typ, len(labels)))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, buckets: buckets, series: map[string]series{}}
	r.families[name] = f
	return f
}

// ---------------------------------------------------------------------
// Counters

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by definition).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
}

// Counter returns the unlabelled counter with the given name, creating
// it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labelled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labels, nil)}
}

// With returns the counter for one label-value combination.
func (v *CounterVec) With(vals ...string) *Counter {
	return v.f.with(vals, func() series { return &Counter{} }).(*Counter)
}

// ---------------------------------------------------------------------
// Gauges

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta (atomically, via CAS).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.Value()))
}

// Gauge returns the unlabelled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labelled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", labels, nil)}
}

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(vals ...string) *Gauge {
	return v.f.with(vals, func() series { return &Gauge{} }).(*Gauge)
}

// ---------------------------------------------------------------------
// Histograms

// DefBuckets are latency buckets in seconds, spanning sub-millisecond
// widget refreshes to multi-second cold runs.
var DefBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // one per bound; +Inf is implicit via count
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) write(w io.Writer, name, labels string) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, `le="`+formatFloat(b)+`"`), cum)
	}
	total := h.count.Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, `le="+Inf"`), total)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, total)
}

// mergeLabels splices the le label into an existing label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}

// Histogram returns the unlabelled histogram with the given name. nil
// buckets means DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labelled histogram family with the given
// name. nil buckets means DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, "histogram", labels, buckets)}
}

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(vals ...string) *Histogram {
	return v.f.with(vals, func() series {
		return &Histogram{bounds: v.f.buckets, counts: make([]atomic.Int64, len(v.f.buckets))}
	}).(*Histogram)
}

// ---------------------------------------------------------------------
// Exposition

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every family in Prometheus text exposition
// format, families and series sorted for stable output.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, k := range keys {
			f.series[k].write(w, f.name, k)
		}
		f.mu.RUnlock()
	}
}
