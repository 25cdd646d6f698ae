package task

import (
	"fmt"
	"sync"
	"testing"

	"shareinsights/internal/schema"
	"shareinsights/internal/table/colstore"
)

// shape is a one-input shape of n+1 columns.
func shape(n int) []Input {
	names := []string{"a"}
	for i := range n {
		names = append(names, fmt.Sprint("c", i))
	}
	return []Input{{Schema: schema.MustFromNames(names...)}}
}

// TestBindKeepsAKernelPerShape: a built-in spec binds once per input
// shape, and every later bind over an equal schema gets that kernel.
func TestBindKeepsAKernelPerShape(t *testing.T) {
	sp := &LimitSpec{N: 3}
	first := Bind(nil, []Spec{sp}, shape(0))
	if !first.OK {
		t.Fatal("limit did not bind")
	}
	if Bind(nil, []Spec{sp}, shape(0)) != first {
		t.Error("a bind over an equal schema bound again")
	}
	for i := 1; i < 4; i++ {
		if k := Bind(nil, []Spec{sp}, shape(i)); k == first || Bind(nil, []Spec{sp}, shape(i)) != k {
			t.Errorf("shape %d: want a kernel of its own, kept", i)
		}
	}
	if Bind(nil, []Spec{sp}, shape(0)) != first {
		t.Error("the first shape's kernel was dropped")
	}
}

// TestBindConcurrent: concurrent first binds of one spec keep exactly
// one kernel per shape, and every caller gets a kernel over its shape.
func TestBindConcurrent(t *testing.T) {
	sp := &LimitSpec{N: 3}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := shape(w % 2)
			if k := Bind(nil, []Spec{sp}, in); !k.OK || !k.Out.Equal(in[0].Schema) {
				t.Errorf("worker %d got a kernel over another shape", w)
			}
		}()
	}
	wg.Wait()
	kept := 0
	for b := sp.bound.Load(); b != nil; b = b.next {
		kept++
	}
	if kept != 2 {
		t.Errorf("kept %d kernels for 2 shapes", kept)
	}
}

// TestFuseKeptPerTail: a spec binds each group it heads once, concurrent
// first asks included: a sort with the limit after it as one top-n, and
// a sort with a sort after it, which Kernel does not group, as no kernel.
func TestFuseKeptPerTail(t *testing.T) {
	sort, limit := &SortSpec{OrderBy: []OrderKey{{Column: "a", Desc: true}}}, &LimitSpec{N: 2}
	got := make([]*Bound, 8)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = Bind(nil, []Spec{sort, limit}, shape(1))
		}()
	}
	wg.Wait()
	top, ok := got[0].Fan.Sinks[0].(*colstore.TopN)
	if !ok || top.Limit != 2 || len(top.Keys) != 1 || !top.Keys[0].Desc {
		t.Fatalf("sort then limit fused into %#v", got[0].Fan.Sinks[0])
	}
	for w, f := range got {
		if f != got[0] {
			t.Errorf("ask %d got a second fused kernel", w)
		}
	}
	if f := Bind(nil, []Spec{sort, sort}, shape(1)); f.OK || Bind(nil, []Spec{sort, sort}, shape(1)).OK {
		t.Errorf("a sort after a sort fused: %#v", f)
	}
	answers := 0
	for f := sort.bound.Load(); f != nil; f = f.next {
		answers++
	}
	if answers != 2 {
		t.Errorf("kept %d answers for 2 tails", answers)
	}
}
