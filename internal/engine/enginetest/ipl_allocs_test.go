package enginetest

import (
	"path/filepath"
	"testing"

	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/flowfile"
)

// iplProcessingAllocs is what one run of the IPL processing flow over
// 20,000 generated tweets allocates (go1.24, linux/amd64, GOMAXPROCS 1,
// the mean of 5 runs after 2 warm-ups): its four `map date` stages run on
// the kernels, and its extracts repeat their input's rows through a
// selection. When each of them appended every cell of every row it
// emitted to a builder, a run allocated 433,753.
const iplProcessingAllocs = 228432

// TestIPLProcessingAllocs pins a run of the IPL processing flow to at
// most iplProcessingAllocs + 2 %.
func TestIPLProcessingAllocs(t *testing.T) {
	var ipl exampleCase
	for _, ec := range exampleCases {
		if ec.dir == "ipl" {
			ipl = ec
		}
	}
	p := dashboard.NewPlatform()
	p.Connectors = connector.NewRegistry(connector.Options{Mem: ipl.mem()})
	f, err := flowfile.Parse("ipl_processingFlow", extractConst(t, filepath.Join(examplesDir(t), "ipl", "main.go"), "processingFlow"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Compile(f, ipl.resources)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	n := testing.AllocsPerRun(5, run)
	t.Logf("objects per run: %.0f", n)
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	if n > iplProcessingAllocs*1.02 {
		t.Errorf("a run of the IPL processing flow allocates %.0f objects, want at most %d + 2 %%", n, iplProcessingAllocs)
	}
}
