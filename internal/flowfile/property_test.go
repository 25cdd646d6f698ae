package flowfile

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomFile builds a syntactically valid flow file from random choices,
// exercising schemas with paths, fan-in flows, task property blocks,
// aggregates, widgets and layouts.
func randomFile(rng *rand.Rand) string {
	var b strings.Builder
	nData := 1 + rng.Intn(4)
	b.WriteString("D:\n")
	for i := 0; i < nData; i++ {
		cols := make([]string, 1+rng.Intn(4))
		for c := range cols {
			if rng.Intn(3) == 0 {
				cols[c] = fmt.Sprintf("path%d.f%d => col%d", i, c, c)
			} else {
				cols[c] = fmt.Sprintf("col%d", c)
			}
		}
		fmt.Fprintf(&b, "  d%d: [%s]\n", i, strings.Join(cols, ", "))
	}
	b.WriteString("\nD.d0:\n  source: 'mem:d0.csv'\n  format: csv\n")
	if rng.Intn(2) == 0 {
		b.WriteString("  endpoint: true\n")
	}
	if rng.Intn(2) == 0 {
		b.WriteString("  publish: shared_d0\n")
	}
	nTasks := 1 + rng.Intn(3)
	b.WriteString("\nT:\n")
	for i := 0; i < nTasks; i++ {
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "  t%d:\n    type: filter_by\n    filter_expression: col0 > %d\n", i, rng.Intn(100))
		case 1:
			fmt.Fprintf(&b, "  t%d:\n    type: groupby\n    groupby: [col0]\n    aggregates:\n      - operator: count\n        out_field: n%d\n", i, i)
		default:
			fmt.Fprintf(&b, "  t%d:\n    type: sort\n    orderby_column: [col0 DESC]\n", i)
		}
	}
	b.WriteString("\nF:\n")
	for i := 0; i < nTasks; i++ {
		fmt.Fprintf(&b, "  +D.out%d: D.d%d | T.t%d\n", i, rng.Intn(nData), i)
	}
	if rng.Intn(2) == 0 {
		b.WriteString("\nW:\n  g:\n    type: Grid\n    source: D.out0\n\nL:\n  rows:\n    - [span12: W.g]\n")
	}
	return b.String()
}

// TestRandomRoundTripProperty: any generated file parses, its canonical
// serialization re-parses, and the second canonical form is a fixed
// point with the same entity counts.
func TestRandomRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomFile(rng)
		f1, err := Parse("gen", src)
		if err != nil {
			t.Logf("parse failed for:\n%s\nerr: %v", src, err)
			return false
		}
		canon := f1.String()
		f2, err := Parse("gen", canon)
		if err != nil {
			t.Logf("canonical reparse failed for:\n%s\nerr: %v", canon, err)
			return false
		}
		if f2.String() != canon {
			t.Logf("canonical form not a fixed point")
			return false
		}
		return len(f1.Flows) == len(f2.Flows) &&
			len(f1.Tasks) == len(f2.Tasks) &&
			len(f1.Widgets) == len(f2.Widgets) &&
			len(f1.DataOrder) == len(f2.DataOrder)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestParserNeverPanics feeds mutated inputs: the parser must return
// errors, not panic, whatever the bytes.
func TestParserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	base := randomFile(rng)
	mutate := func(s string, rng *rand.Rand) string {
		b := []byte(s)
		for k := 0; k < 1+rng.Intn(10); k++ {
			if len(b) == 0 {
				break
			}
			switch rng.Intn(3) {
			case 0: // flip a byte
				b[rng.Intn(len(b))] = byte(rng.Intn(128))
			case 1: // delete a span
				i := rng.Intn(len(b))
				j := i + rng.Intn(len(b)-i)
				b = append(b[:i], b[j:]...)
			default: // insert noise
				i := rng.Intn(len(b) + 1)
				noise := []byte{'[', ']', '(', ':', '|', '-', '\n', '\t', '\''}[rng.Intn(9)]
				b = append(b[:i], append([]byte{noise}, b[i:]...)...)
			}
		}
		return string(b)
	}
	for i := 0; i < 500; i++ {
		src := mutate(base, rng)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on input:\n%q\npanic: %v", src, r)
				}
			}()
			f, err := Parse("fuzzed", src)
			if err == nil {
				// If it parsed, serialization must not panic either.
				_ = f.String()
				_ = f.Validate(true)
			}
		}()
	}
}

// TestPipelineRoundTripProperty: pipeline String/Parse round-trips.
func TestPipelineRoundTripProperty(t *testing.T) {
	f := func(inCount uint8, taskCount uint8) bool {
		nIn := int(inCount%3) + 1
		nT := int(taskCount%4) + 1
		var ins []string
		for i := 0; i < nIn; i++ {
			ins = append(ins, fmt.Sprintf("D.in%d", i))
		}
		head := ins[0]
		if nIn > 1 {
			head = "(" + strings.Join(ins, ", ") + ")"
		}
		src := head
		for i := 0; i < nT; i++ {
			src += fmt.Sprintf(" | T.t%d", i)
		}
		var p, p2 Pipeline
		if new(flowParser).pipeline(src, &p) != nil || new(flowParser).pipeline(p.String(), &p2) != nil {
			return false
		}
		return p.String() == p2.String() && len(p2.Inputs) == nIn && len(p2.Tasks) == nT
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
