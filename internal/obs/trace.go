// Package obs is the platform's observability layer: a dependency-free
// metrics registry with Prometheus text exposition (metrics.go), HTTP
// instrumentation middleware (httpmw.go), and the structured execution
// tracing in this file.
//
// The paper's §6 future work asks for "tools to identify performance
// bottlenecks in the data pipeline", and its own Race2Insights
// evaluation was monitored with telemetry dashboards built on the
// platform itself (Figures 31/32/35). This package supplies the raw
// material: every run can produce a span tree — run → connector fetch →
// task stage → widget render — with wall times, queue waits, row
// cardinalities and cache flags, exported as a human tree or as Chrome
// trace-event JSON.
//
// The package imports only the standard library so every layer of the
// system (engine, connectors, dashboard runtime, server, CLI) can
// depend on it without cycles. The consumer-facing Tracer interface is
// deliberately flat — span ids and builtin types only — so a nil Tracer
// disables tracing with zero allocations on the hot path: callers guard
// every span call with a nil check and never build span state up front.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Tracer receives execution spans. Implementations must be safe for
// concurrent use: the batch engine opens node spans from parallel
// goroutines. The zero value of every consumer is a nil Tracer, which
// disables tracing entirely.
type Tracer interface {
	// StartSpan opens a span under parent (0 = top level) and returns
	// its id. Ids are positive.
	StartSpan(parent int, name string) int
	// EndSpan closes a span, fixing its wall time.
	EndSpan(id int)
	// SpanInt attaches an integer attribute (rows_in, rows_out,
	// duration_us, queue_wait_us, bytes ...).
	SpanInt(id int, key string, v int64)
	// SpanFlag attaches a boolean marker (cache_hit, skipped, columnar,
	// fused ...).
	SpanFlag(id int, flag string)
}

// Attr is one integer span attribute.
type Attr struct {
	Key string
	Val int64
}

// Span is one recorded unit of work, as Roots and Spans build it.
type Span struct {
	// ID and Parent link the tree; Parent 0 marks a top-level span.
	ID, Parent int
	// Name describes the work (e.g. "run demo", "stage groupby region").
	Name string
	// Start is the span's wall-clock start.
	Start time.Time
	// Dur is the span's wall time, fixed by EndSpan.
	Dur time.Duration
	// Ints are integer attributes in attachment order.
	Ints []Attr
	// Flags are boolean markers in attachment order.
	Flags []string
	// Children are the span's sub-spans in start order.
	Children []*Span
}

// Int returns an integer attribute by key.
func (s *Span) Int(key string) (int64, bool) {
	for _, a := range s.Ints {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// HasFlag reports whether a boolean marker is set.
func (s *Span) HasFlag(flag string) bool {
	for _, f := range s.Flags {
		if f == flag {
			return true
		}
	}
	return false
}

// Trace is the standard Tracer: it records spans for rendering and
// export. Safe for concurrent use.
//
// A trace stores its spans as values in one slice, span id i at index
// i-1, each naming its parent, and every span's attributes in one more;
// append grows both by doubling, so recording n spans costs O(log n)
// allocations. The tree is built only when it is read.
type Trace struct {
	mu    sync.Mutex
	name  string
	start time.Time
	spans []span
	attrs []attr
	keys  []attrKey // each attribute key the trace has seen, once
}

// span is one recorded span; start is its offset from the trace's start.
type span struct {
	name       string
	start, dur time.Duration
	parent     int32
	ended      bool
}

// attr is one attribute of span id, its key an index into keys.
type attr struct {
	val     int64
	id, key int32
}

type attrKey struct {
	name string
	flag bool
}

// NewTrace starts an empty trace. name labels exports (the dashboard
// name, typically).
func NewTrace(name string) *Trace {
	return &Trace{name: name, start: time.Now()}
}

// StartSpan implements Tracer.
func (t *Trace) StartSpan(parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 1 || parent > len(t.spans) {
		parent = 0
	}
	t.spans = append(t.spans, span{parent: int32(parent), name: name, start: time.Since(t.start)})
	return len(t.spans)
}

// EndSpan implements Tracer.
func (t *Trace) EndSpan(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id >= 1 && id <= len(t.spans) && !t.spans[id-1].ended {
		s := &t.spans[id-1]
		s.dur, s.ended = time.Since(t.start)-s.start, true
	}
}

// SpanInt implements Tracer.
func (t *Trace) SpanInt(id int, key string, v int64) { t.attr(id, attrKey{name: key}, v) }

// SpanFlag implements Tracer.
func (t *Trace) SpanFlag(id int, flag string) { t.attr(id, attrKey{name: flag, flag: true}, 1) }

func (t *Trace) attr(id int, key attrKey, v int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 1 || id > len(t.spans) {
		return
	}
	k := slices.Index(t.keys, key)
	if k < 0 {
		k, t.keys = len(t.keys), append(t.keys, key)
	}
	t.attrs = append(t.attrs, attr{val: v, id: int32(id), key: int32(k)})
}

// tree builds the span tree: every span in id order, and the top-level
// ones.
func (t *Trace) tree() (spans, roots []*Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slab := make([]Span, len(t.spans))
	spans = make([]*Span, len(t.spans))
	for i, s := range t.spans {
		spans[i] = &slab[i]
		*spans[i] = Span{ID: i + 1, Parent: int(s.parent), Name: s.name, Start: t.start.Add(s.start), Dur: s.dur}
		if s.parent == 0 {
			roots = append(roots, spans[i])
		} else {
			p := spans[s.parent-1]
			p.Children = append(p.Children, spans[i])
		}
	}
	for _, a := range t.attrs {
		if s, k := spans[a.id-1], t.keys[a.key]; k.flag {
			s.Flags = append(s.Flags, k.name)
		} else {
			s.Ints = append(s.Ints, Attr{Key: k.name, Val: a.val})
		}
	}
	return spans, roots
}

// Roots returns the top-level spans in start order.
func (t *Trace) Roots() []*Span {
	_, roots := t.tree()
	return roots
}

// Spans returns every recorded span in creation order.
func (t *Trace) Spans() []*Span {
	spans, _ := t.tree()
	return spans
}

// Len reports how many spans were recorded.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Truncate drops every span recorded after the first n, and their
// attributes, so the next span reuses id n+1: the ids dropped must no
// longer be in use.
func (t *Trace) Truncate(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 || n >= len(t.spans) {
		return
	}
	clear(t.spans[n:])
	t.spans = t.spans[:n]
	t.attrs = slices.DeleteFunc(t.attrs, func(a attr) bool { return int(a.id) > n })
}

// Format renders the span tree for humans:
//
//	run demo                              1.2ms
//	├─ source D.sales                     340µs  rows_out=3
//	│  └─ fetch file                      300µs
//	└─ node D.by_region                   200µs  rows_out=2
func (t *Trace) Format(w io.Writer) {
	var buf bytes.Buffer // w is written after tree's lock: a slow reader holds up no span
	_, roots := t.tree()
	for _, r := range roots {
		formatSpan(&buf, r, "", "")
	}
	w.Write(buf.Bytes())
}

func formatSpan(w io.Writer, s *Span, prefix, childPrefix string) {
	label := prefix + s.Name
	pad := 44 - utf8.RuneCountInString(label) // columns, not bytes: the tree prefixes are multibyte
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(w, "%s%s%v%s\n", label, strings.Repeat(" ", pad), s.Dur.Round(time.Microsecond), attrSuffix(s))
	for i, c := range s.Children {
		if i == len(s.Children)-1 {
			formatSpan(w, c, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			formatSpan(w, c, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

func attrSuffix(s *Span) string {
	var b strings.Builder
	for _, a := range s.Ints {
		fmt.Fprintf(&b, "  %s=%d", a.Key, a.Val)
	}
	for _, f := range s.Flags {
		fmt.Fprintf(&b, "  [%s]", f)
	}
	return b.String()
}

// chromeEvent is one Chrome trace-event ("X" complete event), loadable
// in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   int64            `json:"ts"`
	Dur  int64            `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// WriteChrome exports the trace as a Chrome trace-event JSON array.
// Each top-level span's subtree gets its own track (tid) so parallel
// DAG nodes render side by side.
func (t *Trace) WriteChrome(w io.Writer) error {
	var events []chromeEvent
	_, roots := t.tree()
	for ti, r := range roots {
		var walk func(s *Span)
		walk = func(s *Span) {
			ev := chromeEvent{
				Name: s.Name, Ph: "X",
				Ts:  s.Start.Sub(t.start).Microseconds(),
				Dur: s.Dur.Microseconds(),
				Pid: 1, Tid: ti + 1,
			}
			if len(s.Ints)+len(s.Flags) > 0 {
				ev.Args = map[string]int64{}
			}
			for _, a := range s.Ints {
				ev.Args[a.Key] = a.Val
			}
			for _, f := range s.Flags {
				ev.Args[f] = 1
			}
			events = append(events, ev)
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(r)
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].Ts < events[b].Ts })
	return json.NewEncoder(w).Encode(events)
}
