package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
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
