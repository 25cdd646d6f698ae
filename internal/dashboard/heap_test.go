//go:build go1.24

package dashboard

import (
	"runtime"
	"testing"
	"weak"

	"shareinsights/internal/table"
)

// TestDecodedSourceReleasedHeap: once a run has built its endpoints, no
// one holds the source table it decoded. The dashboard keeps its upload,
// its endpoint data and the node cache, not the decoded source, however
// long it stays live.
func TestDecodedSourceReleasedHeap(t *testing.T) {
	var last weak.Pointer[table.Table]
	spy := &spyFormat{seen: func(t *table.Table) { last = weak.Make(t) }}
	d := compileUpload(t, spyPlatform(t, spy), "spy", lifecycleCSV)
	if spy.calls != 1 {
		t.Fatalf("the run decoded the upload %d times, want 1", spy.calls)
	}
	runtime.GC()
	if last.Value() != nil {
		t.Fatal("the decoded source is reachable after the run")
	}
	if _, ok := d.Result().Table("sales"); !ok || spy.calls != 2 {
		t.Fatalf("Result.Table answered the released source %v after %d decodes, want true after 2", ok, spy.calls)
	}
	runtime.KeepAlive(d)
}
