package main

import (
	"fmt"
	"math"
	"os"
)

// runAA measures the benchmark against itself: pairs of full passes of
// this same binary, alternating which set goes first, then for every
// workload and end-to-end metric the relative difference between the two
// sets' medians beside the metric's bound. Identical code must agree
// within the bounds the benchmark will hold later changes to. The table
// is Markdown: bench/AA.md is this output.
func runAA(pairs int, seed int64, seconds float64, outDir string) int {
	// values[set][workload][metric] collects one value per pass.
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		for _, w := range workloads {
			values[s][w.name] = map[string][]float64{}
		}
	}
	for p := 0; p < pairs; p++ {
		for k := 0; k < 2; k++ {
			set := (p + k) % 2 // A first on even pairs, B first on odd ones
			for _, w := range workloads {
				res, err := runOne(w.name, seed+int64(p), seconds, 0, outDir, false)
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: a/a pair %d set %c %s failed: %v\n", p, 'A'+set, w.name, err)
					return 1
				}
				for _, ms := range []map[string]measured{res.Metrics, res.Timing} {
					for name, v := range ms {
						values[set][w.name][name] = append(values[set][w.name][name], v.Value)
					}
				}
				fmt.Fprintf(os.Stderr, "pair %d/%d set %c %s done\n", p+1, pairs, 'A'+set, w.name)
			}
		}
	}
	fmt.Printf("## Bounded metrics\n\n| workload | metric | unit | median A | median B | B vs A | bound | verdict |\n|---|---|---|---:|---:|---:|---:|---|\n")
	code := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := median(values[0][w.name][m.name]), median(values[1][w.name][m.name])
			diff := (b - a) / a
			verdict := "ok"
			switch {
			case math.Abs(diff) > m.bound:
				verdict = "EXCEEDS BOUND"
				code = 1
			case math.Abs(diff) > m.bound/2:
				verdict = "over half the bound"
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %+.2f%% | %.0f%% | %s |\n",
				w.name, m.name, m.unit, a, b, 100*diff, 100*m.bound, verdict)
		}
	}
	// The timing metrics carry no bound; their table records how far
	// identical code drifts on this host, which is why.
	fmt.Printf("\n## Timing metrics (unbounded)\n\n| workload | metric | unit | median A | median B | B vs A | min..max over all %d passes |\n|---|---|---|---:|---:|---:|---:|\n", 2*pairs)
	for _, w := range workloads {
		for _, m := range timing {
			all := append(append([]float64(nil), values[0][w.name][m.name]...), values[1][w.name][m.name]...)
			a, b := median(values[0][w.name][m.name]), median(values[1][w.name][m.name])
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %+.2f%% | %.4f..%.4f |\n",
				w.name, m.name, m.unit, a, b, 100*(b-a)/a, percentile(all, 0), percentile(all, 1))
		}
	}
	return code
}
