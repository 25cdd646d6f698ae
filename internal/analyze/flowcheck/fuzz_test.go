// Differential soundness fuzzing: flowcheck's contract is that a flow
// it accepts (no error-severity findings) never produces a runtime type
// error, and that every cell both engines produce conforms to the
// inferred static type. The harness generates random pipelines over a
// typed sales fixture, lints them with the true source types, and runs
// every accepted flow on the row AND columnar engines, checking
//
//   - both runs succeed and agree cell-for-cell (kinds included),
//   - every cell Conforms to the column's inferred Type,
//   - proven constants, intervals and cardinality bounds hold.
//
// The external test package breaks the analyze → flowcheck import cycle.
package flowcheck_test

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"shareinsights/internal/analyze"
	"shareinsights/internal/analyze/flowcheck"
	"shareinsights/internal/dag"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

// srcScope is the ground-truth static typing of the fixture table —
// exactly what srcTable produces, so a conformance failure is always a
// checker bug, never a fixture mismatch.
func srcScope() flowcheck.Scope {
	return flowcheck.Scope{
		"region":  {Type: flowcheck.Type{Kind: flowcheck.KString}},
		"product": {Type: flowcheck.Type{Kind: flowcheck.KString}},
		"amount":  {Type: flowcheck.Type{Kind: flowcheck.KInt, Nullable: true}},
		"ratio":   {Type: flowcheck.Type{Kind: flowcheck.KFloat, Nullable: true}},
		"flag":    {Type: flowcheck.Type{Kind: flowcheck.KBool}},
	}
}

func srcTable(n int, seed int64, nullRate int) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	tb := table.New(schema.MustFromNames("region", "product", "amount", "ratio", "flag"))
	regions := []string{"east", "west", "north", "south"}
	for i := 0; i < n; i++ {
		amount := value.NewInt(int64(rng.Intn(200) - 50))
		ratio := value.NewFloat(rng.Float64()*4 - 2)
		if rng.Intn(100) < nullRate {
			amount = value.VNull
		}
		if rng.Intn(100) < nullRate {
			ratio = value.VNull
		}
		tb.AppendValues(
			value.NewString(regions[rng.Intn(len(regions))]),
			value.NewString(fmt.Sprintf("%c%d", 'a'+rng.Intn(3), rng.Intn(4))),
			amount,
			ratio,
			value.NewBool(rng.Intn(2) == 0),
		)
	}
	return tb
}

// --- random flow generation ------------------------------------------------

type flowGen struct {
	rng  *rand.Rand
	cols []string // live columns after the stages generated so far
	next int      // fresh column counter
}

func (g *flowGen) col() string { return g.cols[g.rng.Intn(len(g.cols))] }

// scalar generates a value-producing expression, deliberately including
// ill-typed shapes (string arithmetic, null operands) so the lint gate
// itself is exercised, not just the happy path.
func (g *flowGen) scalar(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(8) {
		case 0, 1, 2:
			return g.col()
		case 3:
			return strconv.Itoa(g.rng.Intn(120) - 40)
		case 4:
			return strconv.FormatFloat(g.rng.Float64()*4-2, 'f', 2, 64)
		case 5:
			return []string{"'east'", "'a1'", "'zz'", "'42'"}[g.rng.Intn(4)]
		case 6:
			return "null"
		default:
			return "-" + g.col()
		}
	}
	op := []string{"+", "-", "*", "/", "%"}[g.rng.Intn(5)]
	return "(" + g.scalar(depth-1) + " " + op + " " + g.scalar(depth-1) + ")"
}

// pred generates a boolean filter expression.
func (g *flowGen) pred(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(6) {
		case 0:
			op := []string{"<", "<=", ">", ">=", "==", "!="}[g.rng.Intn(6)]
			return g.scalar(1) + " " + op + " " + g.scalar(1)
		case 1:
			return g.col() + " in (" + strconv.Itoa(g.rng.Intn(10)) + ", " + strconv.Itoa(g.rng.Intn(10)) + ", 'a1')"
		case 2:
			return g.col() + " contains " + []string{"'a'", "'1'", "'east'"}[g.rng.Intn(3)]
		case 3:
			return g.col() // bare truthiness test
		default:
			op := []string{"<", ">", "=="}[g.rng.Intn(3)]
			return g.col() + " " + op + " " + g.scalar(0)
		}
	}
	switch g.rng.Intn(3) {
	case 0:
		return "(" + g.pred(depth-1) + " and " + g.pred(depth-1) + ")"
	case 1:
		return "(" + g.pred(depth-1) + " or " + g.pred(depth-1) + ")"
	default:
		return "not (" + g.pred(depth-1) + ")"
	}
}

// stage emits one task definition and updates the live column set.
func (g *flowGen) stage(id string) string {
	switch g.rng.Intn(8) {
	case 0, 1:
		return fmt.Sprintf("  %s:\n    type: filter_by\n    filter_expression: %s\n", id, g.pred(2))
	case 2:
		// The expression must be generated BEFORE the output column
		// becomes live: a map expr cannot read its own output.
		ex := g.scalar(2)
		out := fmt.Sprintf("m%d", g.next)
		g.next++
		if g.rng.Intn(4) == 0 {
			out = g.col() // overwrite an existing column
		} else {
			g.cols = append(g.cols, out)
		}
		return fmt.Sprintf("  %s:\n    type: map\n    operator: expr\n    expression: %s\n    output: %s\n", id, ex, out)
	case 3:
		out := fmt.Sprintf("c%d", g.next)
		g.next++
		g.cols = append(g.cols, out)
		val := []string{"42", "3.5", "fixed", "true"}[g.rng.Intn(4)]
		return fmt.Sprintf("  %s:\n    type: map\n    operator: constant\n    output: %s\n    value: %q\n", id, out, val)
	case 4:
		dir := []string{"", " DESC"}[g.rng.Intn(2)]
		return fmt.Sprintf("  %s:\n    type: sort\n    orderby_column: [%s%s]\n", id, g.col(), dir)
	case 5:
		return fmt.Sprintf("  %s:\n    type: limit\n    limit: %d\n", id, g.rng.Intn(30)+1)
	case 6:
		dir := []string{"", " DESC"}[g.rng.Intn(2)]
		return fmt.Sprintf("  %s:\n    type: topn\n    orderby_column: [%s%s]\n    limit: %d\n", id, g.col(), dir, g.rng.Intn(8)+1)
	default:
		key := g.col()
		aggOp := []string{"sum", "avg", "min", "max", "count"}[g.rng.Intn(5)]
		on := g.col()
		outField := fmt.Sprintf("g%d", g.next)
		g.next++
		s := fmt.Sprintf("  %s:\n    type: groupby\n    groupby: [%s]\n    aggregates:\n      - operator: %s\n", id, key, aggOp)
		if aggOp != "count" {
			s += fmt.Sprintf("        apply_on: %s\n", on)
		}
		s += fmt.Sprintf("        out_field: %s\n", outField)
		g.cols = []string{key, outField}
		return s
	}
}

// genFlow assembles a random 1..5 stage flow, sometimes split across an
// intermediate data object so cross-object fact propagation is covered.
func genFlow(rng *rand.Rand) string {
	g := &flowGen{rng: rng, cols: []string{"region", "product", "amount", "ratio", "flag"}}
	stages := rng.Intn(5) + 1
	var tasks []string
	var chain []string
	for i := 0; i < stages; i++ {
		id := fmt.Sprintf("t%d", i)
		chain = append(chain, "T."+id)
		tasks = append(tasks, g.stage(id))
	}
	flows := "  D.out: D.src | " + strings.Join(chain, " | ") + "\n"
	if stages > 1 && rng.Intn(2) == 0 {
		cut := rng.Intn(stages-1) + 1
		flows = "  D.mid: D.src | " + strings.Join(chain[:cut], " | ") + "\n" +
			"  D.out: D.mid | " + strings.Join(chain[cut:], " | ") + "\n"
	}
	return "D:\n  src: [region, product, amount, ratio, flag]\n\nF:\n" +
		flows + "\n  D.out:\n    endpoint: true\n\nT:\n" + strings.Join(tasks, "")
}

// --- the soundness property ------------------------------------------------

// parseType inverts Type.String; the fuzzer reads types back from the
// exported Facts so the wire contract is what gets verified.
func parseType(t *testing.T, s string) flowcheck.Type {
	t.Helper()
	if s == "null" {
		return flowcheck.Type{Kind: flowcheck.KNone, Nullable: true}
	}
	nullable := strings.HasSuffix(s, "?")
	var k flowcheck.Kind
	switch strings.TrimSuffix(s, "?") {
	case "bool":
		k = flowcheck.KBool
	case "int":
		k = flowcheck.KInt
	case "float":
		k = flowcheck.KFloat
	case "string":
		k = flowcheck.KString
	case "time":
		k = flowcheck.KTime
	case "any":
		k = flowcheck.KAny
	default:
		t.Fatalf("unknown rendered type %q", s)
	}
	return flowcheck.Type{Kind: k, Nullable: nullable}
}

// checkFlow generates one flow from the seed, lints it, and — when
// accepted — proves the run-time soundness properties. Returns whether
// the flow was accepted.
func checkFlow(t *testing.T, seed int64, rows, nullRate int) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src := genFlow(rng)
	f, err := flowfile.Parse("fuzz", src)
	if err != nil {
		t.Fatalf("generated flow does not parse: %v\n%s", err, src)
	}
	report, facts := analyze.LintWithFacts(f, analyze.Options{
		Tasks:        task.NewRegistry(),
		SourceScopes: map[string]flowcheck.Scope{"src": srcScope()},
	})
	if report.HasErrors() {
		return false
	}
	sources := map[string]*table.Table{"src": srcTable(rows, seed+999, nullRate)}
	g, err := dag.Build(f, task.NewRegistry(), nil)
	if err != nil {
		t.Fatalf("lint-clean flow fails to compile: %v\n%s", err, src)
	}
	var results []*batch.Result
	for _, mode := range []string{batch.ColumnarOff, batch.ColumnarOn} {
		e := &batch.Executor{Parallelism: 1, Columnar: mode}
		res, err := e.RunContext(context.Background(), g, &task.Env{}, sources)
		if err != nil {
			t.Fatalf("lint-clean flow fails at runtime (columnar=%s): %v\n%s", mode, err, src)
		}
		results = append(results, res)
	}
	row, col := results[0], results[1]
	for _, name := range row.SortedNames() {
		want, _ := row.Table(name)
		got, ok := col.Table(name)
		if !ok || !want.Equal(got) {
			t.Fatalf("row and columnar engines disagree on D.%s\n%s", name, src)
		}
		checkConforms(t, src, name, want, facts)
	}
	// The platform runs with the cost-based optimizer on by default, so
	// the soundness property extends to it: a planned run — fed the same
	// static facts the checker just proved, which reorder filters and
	// shape pushdowns — must agree with the unplanned reference on both
	// engines, and its outputs must conform to the same facts.
	hints := analyze.Analyze(g, map[string]flowcheck.Scope{"src": srcScope()}).Hints()
	for _, mode := range []string{batch.ColumnarOff, batch.ColumnarOn} {
		e := &batch.Executor{Parallelism: 1, Columnar: mode, Plan: dag.Optimize(g, hints.PlanOptions(nil))}
		res, err := e.RunContext(context.Background(), g, &task.Env{}, sources)
		if err != nil {
			t.Fatalf("lint-clean flow fails under the optimizer (columnar=%s): %v\n%s", mode, err, src)
		}
		for _, name := range row.SortedNames() {
			want, _ := row.Table(name)
			got, ok := res.Table(name)
			if !ok || !want.Equal(got) {
				t.Fatalf("optimized run (columnar=%s) disagrees with reference on D.%s\n%s", mode, name, src)
			}
			checkConforms(t, src, name, got, facts)
		}
	}
	return true
}

// checkConforms proves one produced table against the exported facts.
func checkConforms(t *testing.T, src, name string, tb *table.Table, facts *flowcheck.Facts) {
	t.Helper()
	of := facts.Objects[name]
	if of == nil {
		t.Fatalf("no facts recorded for produced object D.%s\n%s", name, src)
	}
	if !of.Card.Unbounded && int64(tb.Len()) > of.Card.Max {
		t.Fatalf("D.%s: %d rows exceed the proven bound %d\n%s", name, tb.Len(), of.Card.Max, src)
	}
	if int64(tb.Len()) < of.Card.Min {
		t.Fatalf("D.%s: %d rows below the proven minimum %d\n%s", name, tb.Len(), of.Card.Min, src)
	}
	for j, sc := range tb.Schema().Columns() {
		cf, ok := of.Columns[sc.Name]
		if !ok {
			continue // untracked column: no claim, nothing to refute
		}
		ty := parseType(t, cf.Type)
		for i, r := range tb.Rows() {
			v := r[j]
			if !flowcheck.Conforms(v, ty) {
				t.Fatalf("D.%s.%s row %d: value %s (%v) does not conform to inferred %s\n%s",
					name, sc.Name, i, v, v.Kind(), cf.Type, src)
			}
			if cf.Const != nil && (v.String() != *cf.Const || v.Kind().String() != cf.ConstKind) {
				t.Fatalf("D.%s.%s row %d: value %s breaks the proven constant %s (%s)\n%s",
					name, sc.Name, i, v, *cf.Const, cf.ConstKind, src)
			}
			if !v.IsNull() {
				fv := v.Float()
				if cf.Lo != nil && fv < *cf.Lo {
					t.Fatalf("D.%s.%s row %d: %s below proven bound %g\n%s", name, sc.Name, i, v, *cf.Lo, src)
				}
				if cf.Hi != nil && fv > *cf.Hi {
					t.Fatalf("D.%s.%s row %d: %s above proven bound %g\n%s", name, sc.Name, i, v, *cf.Hi, src)
				}
			}
		}
	}
}

// FuzzFlowcheck is the randomized entry point; the seeded corpus lives
// under testdata/fuzz/FuzzFlowcheck.
func FuzzFlowcheck(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed, int64(60), int64(25))
	}
	f.Add(int64(7), int64(0), int64(0))     // empty source
	f.Add(int64(11), int64(40), int64(100)) // all-null measures
	// Optimizer-shaped seeds: these generate multi-filter chains (some
	// with groupby barriers), the shapes the planner's filter-reorder
	// and pushdown rules rewrite — so the fuzzer keeps hammering the
	// planned-vs-unplanned agreement checkFlow proves.
	for _, seed := range []int64{3, 9, 10, 23, 33, 39, 52, 57, 63, 103} {
		f.Add(seed, int64(64), int64(25))
		f.Add(seed, int64(64), int64(100)) // all-null measures through reordered filters
	}
	f.Fuzz(func(t *testing.T, seed, rows, nullRate int64) {
		if rows < 0 {
			rows = -rows
		}
		if nullRate < 0 {
			nullRate = -nullRate
		}
		checkFlow(t, seed, int(rows%200), int(nullRate%101))
	})
}

// TestFlowcheckSoundnessSweep is the deterministic acceptance gate: at
// least a thousand random flows, every accepted one proven sound on
// both engines, and the generator must not degenerate into producing
// only rejected flows.
func TestFlowcheckSoundnessSweep(t *testing.T) {
	n := 1100
	if testing.Short() {
		n = 150
	}
	accepted := 0
	rowChoices := []int{0, 1, 17, 64}
	nullChoices := []int{0, 10, 60, 100}
	for seed := 0; seed < n; seed++ {
		if checkFlow(t, int64(seed), rowChoices[seed%4], nullChoices[(seed/4)%4]) {
			accepted++
		}
	}
	t.Logf("accepted %d of %d generated flows", accepted, n)
	if accepted < n/3 {
		t.Errorf("generator degenerated: only %d of %d flows accepted", accepted, n)
	}
}
