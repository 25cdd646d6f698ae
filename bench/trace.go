package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// Layer names are module names. layerClient marks the benchmark's own
// span around a request or facade call, layerCycle the span around one
// whole cycle; neither is a layer of the program.
const (
	layerClient = "client"
	layerCycle  = "cycle"
)

// span is one recorded interval. Spans are recorded by the benchmark's
// own files, kept in memory and written out when the run ends.
type span struct {
	Name  string
	Layer string
	Start time.Duration // since the recorder started
	Dur   time.Duration
	// Parent indexes recorder.spans; -1 marks a root.
	Parent int
	// Cycle joins the three sources: client spans, the program's own
	// trace of that cycle's run, and the layer replay of its inputs.
	Cycle int
	// Host names what a replay span is carved out of when self times are
	// computed (see attribute); empty for measured spans.
	Host string
	Args map[string]int64
}

func (s *span) end() time.Duration { return s.Start + s.Dur }

// recorder collects spans from the single client goroutine, so the
// innermost open span is the parent of the next one. A nil *recorder
// records nothing.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	cycle int
	// lastClient is the most recent client span: where the program's
	// trace of that request is imported.
	lastClient int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) start(name, layer string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Layer: layer, Start: time.Since(r.t0), Parent: parent, Cycle: r.cycle})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	if layer == layerClient {
		r.lastClient = id
	}
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].Dur = time.Since(r.t0) - r.spans[id].Start
	r.open = r.open[:len(r.open)-1]
}

// chromeEvent is one Chrome trace "complete" event: what the program's
// GET /dashboards/{name}/trace?format=chrome serves and what the
// benchmark writes.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat,omitempty"`
	Ph   string           `json:"ph"`
	Ts   int64            `json:"ts"`
	Dur  int64            `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// programLayer maps a span name of the program's own trace to the
// module that did the work, and tells which span kinds may nest in it.
func programLayer(ev *chromeEvent) (layer string, children string) {
	switch first, _, _ := strings.Cut(ev.Name, " "); first {
	case "run":
		return "dashboard", "source node widget"
	case "source":
		return "connector", "fetch decode"
	case "fetch", "decode":
		return "connector", ""
	case "node":
		return "batch", "stage"
	case "stage":
		if ev.Args["columnar"] == 1 && ev.Args["fallback"] == 0 {
			return "colstore", ""
		}
		return "task", ""
	case "widget":
		return "dashboard", "stage cube"
	case "cube":
		return "cube", ""
	}
	return "dashboard", ""
}

// importProgramTrace adds the program's trace of one run (Chrome events,
// timestamps relative to that trace's own start) under the client span
// that caused it. The export carries no parent ids, so a span's parent
// is the shortest earlier span that contains it and may hold its kind.
// Durations are exact; the offset inside the client span is centred,
// because the two clocks share no origin.
func (r *recorder) importProgramTrace(under int, events []chromeEvent) {
	if len(events) == 0 {
		return
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Ts != events[j].Ts {
			return events[i].Ts < events[j].Ts
		}
		return events[i].Dur > events[j].Dur
	})
	host := r.spans[under]
	root := time.Duration(events[0].Dur) * time.Microsecond
	shift := host.Start + (host.Dur-root)/2 - time.Duration(events[0].Ts)*time.Microsecond
	base := len(r.spans)
	kids := make([]string, len(events))
	for i := range events {
		ev := &events[i]
		layer, allowed := programLayer(ev)
		kids[i] = allowed
		kind, _, _ := strings.Cut(ev.Name, " ")
		parent := under
		var best int64 = -1
		for j := 0; j < i; j++ {
			p := &events[j]
			if p.Ts <= ev.Ts && p.Ts+p.Dur >= ev.Ts+ev.Dur && strings.Contains(kids[j], kind) &&
				(best < 0 || p.Dur <= best) {
				parent, best = base+j, p.Dur
			}
		}
		r.spans = append(r.spans, span{
			Name: ev.Name, Layer: layer, Parent: parent, Cycle: host.Cycle, Args: ev.Args,
			Start: shift + time.Duration(ev.Ts)*time.Microsecond,
			Dur:   time.Duration(ev.Dur) * time.Microsecond,
		})
	}
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its children cover. Children that ran in
// parallel are counted once where they overlap.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := time.Duration(0), spans[i].Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].end()
			if lo < edge {
				lo = edge
			}
			if hi > spans[i].end() {
				hi = spans[i].end()
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		if self[i] = spans[i].Dur - covered; self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// writeChrome writes the spans as Chrome trace events: one track for
// the measured cycles, one for the layer replay.
func writeChrome(path string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for i := range spans {
		s := &spans[i]
		args := map[string]int64{"cycle": int64(s.Cycle), "span": int64(i), "parent": int64(s.Parent)}
		for k, v := range s.Args {
			args[k] = v
		}
		tid := 1
		if s.Host != "" {
			tid = 2
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X", Pid: 1, Tid: tid, Args: args,
			Ts: s.Start.Microseconds(), Dur: s.Dur.Microseconds(),
		})
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// gcCPUSeconds is the CPU time the garbage collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
