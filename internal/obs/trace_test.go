package obs

import (
	"encoding/json"
	"math/bits"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

func TestTraceTree(t *testing.T) {
	tr := NewTrace("demo")
	run := tr.StartSpan(0, "run demo")
	src := tr.StartSpan(run, "source D.sales")
	tr.SpanInt(src, "rows_out", 3)
	tr.EndSpan(src)
	node := tr.StartSpan(run, "node D.by_region")
	stage := tr.StartSpan(node, "stage groupby region")
	tr.SpanInt(stage, "rows_in", 3)
	tr.SpanInt(stage, "rows_out", 2)
	tr.EndSpan(stage)
	tr.SpanFlag(node, "cache_hit")
	tr.EndSpan(node)
	tr.EndSpan(run)

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != "run demo" {
		t.Fatalf("roots = %v", roots)
	}
	if len(roots[0].Children) != 2 {
		t.Fatalf("run has %d children, want 2", len(roots[0].Children))
	}
	nodeSpan := roots[0].Children[1]
	if !nodeSpan.HasFlag("cache_hit") {
		t.Error("node span lost its cache_hit flag")
	}
	if v, ok := nodeSpan.Children[0].Int("rows_out"); !ok || v != 2 {
		t.Errorf("stage rows_out = %d,%v; want 2,true", v, ok)
	}

	var b strings.Builder
	tr.Format(&b)
	out := b.String()
	for _, want := range []string{"run demo", "├─ source D.sales", "└─ node D.by_region", "   └─ stage groupby region", "[cache_hit]", "rows_in=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
}

func TestTraceEndIsIdempotentAndUnknownIDsIgnored(t *testing.T) {
	tr := NewTrace("x")
	id := tr.StartSpan(0, "a")
	tr.EndSpan(id)
	d := tr.Roots()[0].Dur
	tr.EndSpan(id) // second end must not overwrite
	if tr.Roots()[0].Dur != d {
		t.Error("EndSpan overwrote the fixed duration")
	}
	tr.EndSpan(99) // unknown id: no panic
	tr.SpanInt(99, "k", 1)
	tr.SpanFlag(99, "f")
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
	// A span started under an unknown parent becomes a root.
	tr.StartSpan(42, "orphan")
	if len(tr.Roots()) != 2 {
		t.Errorf("orphan span not promoted to root: %d roots", len(tr.Roots()))
	}
}

func TestTraceTruncate(t *testing.T) {
	tr := NewTrace("x")
	run := tr.StartSpan(0, "run")
	tr.EndSpan(tr.StartSpan(run, "node"))
	tr.EndSpan(run)
	var before strings.Builder
	tr.Format(&before)
	for i := 0; i < 3; i++ {
		tr.Truncate(2)
		late := tr.StartSpan(run, "late child")
		w := tr.StartSpan(0, "widget")
		tr.StartSpan(w, "cube filter")
		if late != 3 || w != 4 {
			t.Fatalf("ids after truncate = %d, %d; want 3, 4", late, w)
		}
	}
	if tr.Len() != 5 || len(tr.Roots()) != 2 || len(tr.Roots()[0].Children) != 2 || len(tr.Roots()[1].Children) != 1 {
		t.Fatalf("after truncate and regrow: %d spans, roots %v", tr.Len(), tr.Roots())
	}
	tr.Truncate(2)
	var after strings.Builder
	tr.Format(&after)
	if tr.Len() != 2 || after.String() != before.String() {
		t.Errorf("truncated trace:\n%s\nwant:\n%s", after.String(), before.String())
	}
	tr.Truncate(7) // past the end: no-op
	if tr.Len() != 2 {
		t.Errorf("Len = %d after truncating past the end", tr.Len())
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("par")
	run := tr.StartSpan(0, "run")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := tr.StartSpan(run, "node")
				tr.SpanInt(id, "rows_out", int64(i))
				tr.EndSpan(id)
			}
		}()
	}
	wg.Wait()
	tr.EndSpan(run)
	if got := len(tr.Roots()[0].Children); got != 800 {
		t.Errorf("children = %d, want 800", got)
	}
}

func TestWriteChrome(t *testing.T) {
	tr := NewTrace("demo")
	run := tr.StartSpan(0, "run demo")
	st := tr.StartSpan(run, "stage filter")
	tr.SpanInt(st, "rows_out", 7)
	tr.SpanFlag(st, "cache_hit")
	tr.EndSpan(st)
	tr.EndSpan(run)

	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, b.String())
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Errorf("event phase = %v, want X", ev["ph"])
		}
	}
	args, ok := events[1]["args"].(map[string]any)
	if !ok {
		t.Fatalf("stage event has no args: %v", events[1])
	}
	if args["rows_out"] != float64(7) || args["cache_hit"] != float64(1) {
		t.Errorf("stage args = %v", args)
	}
}

// TestFormatAlignsDurations: the human tree's duration column starts in
// the same column on every line, however deep the line's prefix — the
// tree-drawing prefixes are one column per rune but up to three bytes.
func TestFormatAlignsDurations(t *testing.T) {
	tr := NewTrace("r")
	run := tr.StartSpan(0, "run r")
	src := tr.StartSpan(run, "source D.sales")
	tr.StartSpan(src, "fetch file")
	tr.StartSpan(src, "decode csv")
	node := tr.StartSpan(run, "node D.by_region")
	tr.StartSpan(node, "stage filter_by qty > 2")
	tr.StartSpan(tr.StartSpan(node, "stage groupby region"), "kernel")
	tr.StartSpan(run, "widget W.regions endpoint")
	var b strings.Builder
	tr.Format(&b) // no span ended: every duration reads 0s
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 9 {
		t.Fatalf("%d lines:\n%s", len(lines), b.String())
	}
	for _, line := range lines {
		if col := utf8.RuneCountInString(line[:strings.LastIndex(line, " 0s")+1]); col != 44 {
			t.Errorf("duration of %q starts in column %d, want 44", line, col)
		}
	}
}

// TestTraceAllocs pins a trace's storage: recording n spans, each with
// three integers and a flag, grows two slices geometrically — O(log n)
// allocations, not a few per span.
func TestTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, n := range []int{16, 1024} {
		allocs := testing.AllocsPerRun(10, func() {
			tr := NewTrace("t")
			for i := range n {
				id := tr.StartSpan(i/2, "stage")
				tr.SpanInt(id, "rows_in", 1)
				tr.SpanInt(id, "rows_out", 1)
				tr.SpanInt(id, "duration_us", 1)
				tr.SpanFlag(id, "columnar")
				tr.EndSpan(id)
			}
		})
		if limit := 4 * bits.Len(uint(n)); allocs > float64(limit) {
			t.Errorf("recording %d spans allocates %.0f objects, want at most %d", n, allocs, limit)
		}
	}
}
