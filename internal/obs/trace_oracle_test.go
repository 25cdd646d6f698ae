package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// oracleTrace is the trace as it stored spans before they were flat: a
// *Span per span, linked into its parent's Children or the roots as it
// starts, each growing its own attribute slices. It is the oracle the
// flat Trace is held to.
type oracleTrace struct {
	mu    sync.Mutex
	start time.Time
	spans []*oracleSpan
	roots []*oracleSpan
}

type oracleSpan struct {
	Span
	kids  []*oracleSpan
	ended bool
}

func (t *oracleTrace) StartSpan(parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &oracleSpan{Span: Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Now()}}
	t.spans = append(t.spans, s)
	if parent >= 1 && parent <= len(t.spans)-1 {
		p := t.spans[parent-1]
		p.kids = append(p.kids, s)
	} else {
		s.Parent = 0
		t.roots = append(t.roots, s)
	}
	return s.ID
}

func (t *oracleTrace) EndSpan(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.span(id); s != nil && !s.ended {
		s.Dur = time.Since(s.Start)
		s.ended = true
	}
}

func (t *oracleTrace) SpanInt(id int, key string, v int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.span(id); s != nil {
		s.Ints = append(s.Ints, Attr{Key: key, Val: v})
	}
}

func (t *oracleTrace) SpanFlag(id int, flag string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.span(id); s != nil {
		s.Flags = append(s.Flags, flag)
	}
}

func (t *oracleTrace) span(id int) *oracleSpan {
	if id < 1 || id > len(t.spans) {
		return nil
	}
	return t.spans[id-1]
}

func (t *oracleTrace) Truncate(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 || n >= len(t.spans) {
		return
	}
	t.roots = oracleKeepUpTo(t.roots, n)
	for _, s := range t.spans[:n] {
		s.kids = oracleKeepUpTo(s.kids, n)
	}
	clear(t.spans[n:])
	t.spans = t.spans[:n]
}

func oracleKeepUpTo(ss []*oracleSpan, n int) []*oracleSpan {
	i := len(ss)
	for i > 0 && ss[i-1].ID > n {
		i--
	}
	clear(ss[i:])
	return ss[:i]
}

func (t *oracleTrace) Format(w io.Writer) {
	var buf bytes.Buffer
	var walk func(s *oracleSpan, prefix, childPrefix string)
	walk = func(s *oracleSpan, prefix, childPrefix string) {
		label := prefix + s.Name
		pad := 44 - len(label)
		if pad < 1 {
			pad = 1
		}
		fmt.Fprintf(&buf, "%s%s%v", label, strings.Repeat(" ", pad), s.Dur.Round(time.Microsecond))
		for _, a := range s.Ints {
			fmt.Fprintf(&buf, "  %s=%d", a.Key, a.Val)
		}
		for _, f := range s.Flags {
			fmt.Fprintf(&buf, "  [%s]", f)
		}
		fmt.Fprintln(&buf)
		for i, c := range s.kids {
			if i == len(s.kids)-1 {
				walk(c, childPrefix+"└─ ", childPrefix+"   ")
			} else {
				walk(c, childPrefix+"├─ ", childPrefix+"│  ")
			}
		}
	}
	t.mu.Lock()
	for _, r := range t.roots {
		walk(r, "", "")
	}
	t.mu.Unlock()
	w.Write(buf.Bytes())
}

func (t *oracleTrace) WriteChrome(w io.Writer) error {
	var events []chromeEvent
	t.mu.Lock()
	base := t.start
	for ti, r := range t.roots {
		var walk func(s *oracleSpan)
		walk = func(s *oracleSpan) {
			ev := chromeEvent{
				Name: s.Name, Ph: "X",
				Ts:  s.Start.Sub(base).Microseconds(),
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
			for _, c := range s.kids {
				walk(c)
			}
		}
		walk(r)
	}
	t.mu.Unlock()
	sort.SliceStable(events, func(a, b int) bool { return events[a].Ts < events[b].Ts })
	return json.NewEncoder(w).Encode(events)
}

// pinClocks gives span i of both traces the same start, i·7µs (two
// spans sharing one every fifth id, so the export's stable sort meets
// ties), and an ended span the same duration, so their exports can be
// compared byte for byte.
func pinClocks(got *Trace, want *oracleTrace) {
	want.start = got.start
	for i := range got.spans {
		at, dur := time.Duration(i-i/5)*7*time.Microsecond, time.Duration(i%13)*time.Microsecond
		got.spans[i].start, want.spans[i].Start = at, got.start.Add(at)
		if got.spans[i].ended {
			got.spans[i].dur, want.spans[i].Dur = dur, dur
		}
	}
}

// traceOps drives tr with n random calls from rng: spans under random
// parents (unknown ones, which make orphans, included), ends, integer
// and flag attributes on known and unknown ids, and truncations.
func traceOps(rng *rand.Rand, n int, call func(op func(tr Tracer, truncate func(int), spans int))) {
	keys := []string{"rows_in", "rows_out", "duration_us", "bytes"}
	flags := []string{"columnar", "cache_hit", "error", "skipped"}
	for range n {
		k, a, b := rng.Intn(100), rng.Int(), rng.Int()
		call(func(tr Tracer, truncate func(int), spans int) {
			id := a%(spans+3) - 1 // -1 .. spans+1
			switch {
			case k < 35:
				tr.StartSpan(id, fmt.Sprintf("span %d ⋈ %d", id, b%50))
			case k < 55:
				tr.EndSpan(id)
			case k < 80:
				tr.SpanInt(id, keys[b%len(keys)], int64(b%1000))
			case k < 95:
				tr.SpanFlag(id, flags[b%len(flags)])
			default:
				truncate(id)
			}
		})
	}
}

// TestTraceMatchesOracle holds the flat Trace to the per-span one: the
// same calls — random trees, orphan parents, truncations, attributes on
// dropped and unknown ids, from concurrent writers — give the same
// Chrome bytes, the same tree through Spans and Roots, and the same
// human tree but for the duration column's alignment.
func TestTraceMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewTrace("t"), &oracleTrace{start: time.Now()}
		var mu sync.Mutex // one call reaches both traces before the next starts
		apply := func(op func(tr Tracer, truncate func(int), spans int)) {
			mu.Lock()
			defer mu.Unlock()
			op(got, got.Truncate, got.Len())
			op(want, want.Truncate, len(want.spans))
		}
		if seed%4 == 0 {
			var wg sync.WaitGroup
			for w := range 4 {
				r := rand.New(rand.NewSource(seed*10 + int64(w)))
				ops := 50 + rng.Intn(150)
				wg.Add(1)
				go func() {
					defer wg.Done()
					traceOps(r, ops, apply)
				}()
			}
			wg.Wait()
		} else {
			traceOps(rng, 20+rng.Intn(400), apply)
		}
		pinClocks(got, want)

		var gb, wb bytes.Buffer
		if err := got.WriteChrome(&gb); err != nil {
			t.Fatal(err)
		}
		if err := want.WriteChrome(&wb); err != nil {
			t.Fatal(err)
		}
		if gb.String() != wb.String() {
			t.Fatalf("seed %d: chrome export\n%s\nwant\n%s", seed, gb.String(), wb.String())
		}
		gb.Reset()
		wb.Reset()
		got.Format(&gb)
		want.Format(&wb)
		if g, w := strings.Join(strings.Fields(gb.String()), " "), strings.Join(strings.Fields(wb.String()), " "); g != w {
			t.Fatalf("seed %d: human tree\n%s\nwant\n%s", seed, gb.String(), wb.String())
		}
		spans := got.Spans()
		if len(spans) != len(want.spans) {
			t.Fatalf("seed %d: %d spans, want %d", seed, len(spans), len(want.spans))
		}
		same := func(g *Span, w *oracleSpan) bool {
			if g.ID != w.ID || g.Parent != w.Parent || g.Name != w.Name || !g.Start.Equal(w.Start) || g.Dur != w.Dur ||
				fmt.Sprint(g.Ints, g.Flags) != fmt.Sprint(w.Ints, w.Flags) || len(g.Children) != len(w.kids) {
				return false
			}
			for i, c := range g.Children {
				if c.ID != w.kids[i].ID {
					return false
				}
			}
			return true
		}
		for i, s := range spans {
			if !same(s, want.spans[i]) {
				t.Fatalf("seed %d: span %+v, want %+v", seed, *s, want.spans[i].Span)
			}
		}
		roots := got.Roots()
		if len(roots) != len(want.roots) {
			t.Fatalf("seed %d: %d roots, want %d", seed, len(roots), len(want.roots))
		}
		for i, r := range roots {
			if !same(r, want.roots[i]) {
				t.Fatalf("seed %d: root %d is span %d, want %d", seed, i, r.ID, want.roots[i].ID)
			}
		}
	}
}
