package analyze

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"shareinsights/internal/analyze/flowcheck"
	"shareinsights/internal/connector"
	"shareinsights/internal/dag"
	"shareinsights/internal/expr"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/task"
)

// The oracle: the liveness pass as it was before live sets became
// bitsets — liveness, backProp, outLive, checkDeadColumns, exportFacts,
// deadColumns, the dead-source half of Hints, flowcheck.LiveIn with its
// helpers, and flowcheck's NewFacts, Facts.Record, Facts.SetLive and
// Facts.AddDead — kept verbatim but for their names, for keeping their
// map sets on the oracle rather than on the analysis records (a stage's
// live-after set is oracle.liveAfter[stage]), and for the changes marked
// "only columns the ... has". The old sets could name a column the
// object at their point lacks, which a bitset over that object's schema
// cannot; each such case is a marked change here and a seed in
// testdata/fuzz/FuzzAnalysisMatchesOracle:
//
//   - a join marked live every column whose qualified name a side's name
//     prefixes, not the one column its binding reads (oracleLiveInJoin);
//   - a map expression naming a column its input lacks (an FL003 error)
//     made that name live upstream (map_expr_missing_column);
//   - a flow whose output another flow also produces (a run error) took
//     that object's demand by name (two_producers).
//
// The other behaviour change under the oracle, an ambiguous join
// project source being a bind error, reaches it through the resolver.

// oracle is one analysis with the oracle's liveness results. Its fields
// shadow the analysis's, so the verbatim code reads them.
type oracle struct {
	*linter
	full      map[string]bool
	live      map[string]map[string]bool
	consumed  map[string]bool
	liveAfter map[*stageRec]map[string]bool
	walked    []*flowfile.Flow
	scopes    map[string]flowcheck.Scope
	cards     map[string]flowcheck.Card
}

// newOracle runs the oracle's liveness pass over a linter's analysis.
func newOracle(l *linter) *oracle {
	o := &oracle{linter: l, liveAfter: map[*stageRec]map[string]bool{},
		scopes: map[string]flowcheck.Scope{}, cards: map[string]flowcheck.Card{}}
	for i := range l.Analysis.walked {
		o.walked = append(o.walked, l.Analysis.walked[i].flow)
	}
	for name, obj := range l.objects {
		if obj.resolved {
			o.scopes[name], o.cards[name] = obj.scope, obj.card
		}
	}
	o.oracleLiveness()
	return o
}

// oracleLint is Lint with the oracle's FL064 and facts export, and the
// oracle's hints.
func oracleLint(a *Analysis, problems []*dag.Problem, opts Options) (*Report, *flowcheck.Facts, Hints) {
	l := &linter{Analysis: a, opts: opts, report: &Report{}}
	o := newOracle(l)
	l.validation()
	l.checkTasks()
	l.checkProblems(problems)
	for _, fl := range a.f.Flows {
		if rec := l.flowRecs[fl]; rec != nil {
			l.checkChain(rec)
		}
	}
	l.checkWidgets()
	l.checkDataProps()
	l.checkPublish()
	l.checkDeadEntities()
	o.oracleCheckDeadColumns()
	sort.SliceStable(l.report.Findings, func(i, j int) bool {
		a, b := l.report.Findings[i], l.report.Findings[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Entity < b.Entity
	})
	return l.report, o.oracleExportFacts(), o.oracleHints()
}

// oracleLiveness is the backward liveness pass: starting from what the outside
// world can observe (endpoints, published objects, widget bindings,
// chains the walk could not analyze — all conservatively fully live), it
// propagates column demand backward through every walked flow. Source
// columns that are fetched but unused become facts only
// (projection-pushdown input for the optimizer), not findings — the flow
// author often cannot change a source's schema.
func (a *oracle) oracleLiveness() {
	a.full = map[string]bool{}
	a.live = map[string]map[string]bool{}
	a.consumed = map[string]bool{}

	// Externally visible objects need every column.
	for _, name := range a.f.DataOrder {
		d := a.f.Data[name]
		if d.Endpoint || d.Publish != "" {
			a.full[name] = true
		}
	}
	// Widgets may render any column of their source pipeline's inputs;
	// their demand is not tracked column-by-column.
	for _, c := range a.g.Widgets {
		for _, in := range c.Inputs {
			a.full[in] = true
			a.consumed[in] = true
		}
	}
	// A flow the walk could not analyze may read anything.
	for _, fl := range a.f.Flows {
		if fl.Pipeline == nil {
			continue
		}
		rec := a.flowRecs[fl]
		for _, in := range fl.Pipeline.Inputs {
			a.consumed[in.Name] = true
			if rec == nil || !rec.ok {
				a.full[in.Name] = true
			}
		}
	}

	// The graph's order puts every consumer of a flow's outputs after
	// the flow, so walking it backwards settles an output's demand before
	// its producer reads it: one pass, no fixpoint.
	for i := len(a.walked) - 1; i >= 0; i-- {
		fl := a.walked[i]
		rec := a.flowRecs[fl]
		if !rec.ok {
			continue
		}
		sets := a.oracleBackProp(rec, oracleKeep(a.oracleOutLive(fl.Outputs), rec.chain.Schema)) // only columns the output has
		for j, name := range rec.chain.Inputs {
			if j >= len(sets) || a.full[name] {
				continue
			}
			if a.live[name] == nil {
				a.live[name] = map[string]bool{}
			}
			for c := range sets[j] {
				a.live[name][c] = true
			}
		}
	}
}

// oracleCheckDeadColumns reports FL064: a computed column nothing downstream
// reads. Deduplicated by task and column — a task shared by several
// flows reports once.
func (l *oracle) oracleCheckDeadColumns() {
	seen := map[string]bool{}
	for _, fl := range l.f.Flows {
		rec := l.flowRecs[fl]
		if rec == nil || !rec.ok {
			continue
		}
		for k, st := range rec.stages {
			for _, c := range computedCols(rec.chain.Specs[k]) {
				if l.liveAfter[&rec.stages[k]][c] || seen[st.Name+"\x00"+c] {
					continue
				}
				seen[st.Name+"\x00"+c] = true
				l.add(Finding{Rule: "FL064", Severity: Info, Entity: "T." + st.Name, Line: st.Def.Line,
					Message: fmt.Sprintf("column %q is computed but never used downstream — no endpoint, widget, filter or later task reads it", c),
					Hint:    "drop the column, or remove the task if nothing else needs it"})
			}
		}
	}
}

// oracleOutLive is the union of column demand over a flow's output objects; a
// fully-live output expands to its whole schema.
func (a *oracle) oracleOutLive(outs []flowfile.Ref) map[string]bool {
	demand := map[string]bool{}
	for _, o := range outs {
		if a.full[o.Name] {
			if s := a.g.Nodes[o.Name].Schema; s != nil {
				for _, n := range s.Names() {
					demand[n] = true
				}
			}
			continue
		}
		for c := range a.live[o.Name] {
			demand[c] = true
		}
	}
	return demand
}

// oracleBackProp pushes a demand set backward through one walked chain. It
// returns the per-pipeline-input demand and keeps, for FL064, the demand
// live immediately after each stage on the stage's record.
func (a *oracle) oracleBackProp(rec *chainRec, liveOut map[string]bool) []map[string]bool {
	cur := liveOut
	for k := len(rec.stages) - 1; k >= 0; k-- {
		st := &rec.stages[k]
		a.liveAfter[st] = cur
		sets := oracleLiveIn(rec.chain.Specs[k], st.Def, st.ins, cur)
		if k == 0 {
			return sets
		}
		if len(sets) > 0 {
			cur = sets[0]
		} else {
			cur = map[string]bool{}
		}
	}
	// No stages: every input feeds the output unchanged.
	sets := make([]map[string]bool, len(rec.chain.Inputs))
	for i := range sets {
		c := map[string]bool{}
		for k := range liveOut {
			c[k] = true
		}
		sets[i] = c
	}
	return sets
}

// oracleExportFacts assembles the stable fact structure from the walk's
// per-object results and the liveness pass.
func (a *oracle) oracleExportFacts() *flowcheck.Facts {
	facts := oracleNewFacts()
	for name, sc := range a.scopes {
		prod, verdict := "source", ""
		if rec := a.flowRecs[a.g.Nodes[name].Flow]; rec != nil {
			prod = "flow"
			if n := len(rec.stages); n > 0 {
				prod, verdict = "T."+rec.stages[n-1].Name, rec.stages[n-1].verdict
			}
		}
		oracleRecord(facts, name, prod, sc, a.cards[name], verdict)
		if a.full[name] {
			all := map[string]bool{}
			for _, n := range a.g.Nodes[name].Schema.Names() {
				all[n] = true
			}
			oracleSetLive(facts, name, all)
		} else if a.consumed[name] {
			oracleSetLive(facts, name, a.live[name])
			for _, col := range a.oracleDeadColumns(name) {
				oracleAddDead(facts, name, col, prod != "source")
			}
		}
	}
	return facts
}

// oracleDeadColumns lists the columns of a consumed, not fully live object
// that nothing downstream reads, in schema order.
func (a *oracle) oracleDeadColumns(name string) []string {
	var dead []string
	if s := a.g.Nodes[name].Schema; s != nil && a.consumed[name] && !a.full[name] {
		for _, col := range s.Names() {
			if !a.live[name][col] {
				dead = append(dead, col)
			}
		}
	}
	return dead
}

func (a *oracle) oracleHints() Hints {
	g := a.g
	h := Hints{
		Selectivity:       map[string]float64{},
		DeadSourceColumns: map[string][]string{},
	}
	for _, fl := range g.File.Flows {
		rec := a.flowRecs[fl]
		if rec == nil || !rec.ok {
			continue
		}
		for k, st := range rec.stages {
			var sel float64
			switch st.verdict {
			case "always_false":
				sel = 0
			case "always_true":
				sel = 1
			default:
				continue
			}
			desc := task.Describe(rec.chain.Specs[k])
			for _, o := range fl.Outputs {
				h.Selectivity[dag.HintKey(o.Name, desc)] = sel
			}
		}
	}
	// A dead computed column is FL064 material, not a fetch to trim.
	for _, name := range g.Sources() {
		if dead := a.oracleDeadColumns(name); len(dead) > 0 {
			sort.Strings(dead)
			h.DeadSourceColumns[name] = dead
		}
	}
	return h
}

// oracleSetLive is Facts.SetLive: it attaches the sorted live-column set to an object, if recorded.
func oracleSetLive(f *flowcheck.Facts, object string, live map[string]bool) {
	of, ok := f.Objects[object]
	if !ok {
		return
	}
	cols := make([]string, 0, len(live))
	for c := range live {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	of.Live = cols
}

// oracleLiveIn computes, for each input of a stage, the columns that must be
// materialized so the stage can produce the liveOut set — the backward
// liveness transfer. Unknown spec kinds conservatively keep every input
// column live, so a custom task can never cause a false dead-column
// report.
func oracleLiveIn(sp task.Spec, def *flowfile.TaskDef, ins []flowcheck.Input, liveOut map[string]bool) []map[string]bool {
	out := make([]map[string]bool, len(ins))
	for i := range out {
		out[i] = map[string]bool{}
	}
	if len(out) == 0 {
		return out
	}
	switch t := sp.(type) {
	case *task.FilterSpec:
		oracleCopySet(out[0], liveOut)
		oracleAddCols(out[0], expr.Columns(t.Expr))
		oracleAddCols(out[0], t.By)
	case *task.MapSpec:
		oracleCopySetExcept(out[0], liveOut, oracleM2set(t.OutColumns()))
		oracleAddCols(out[0], oracleHas(ins[0].Schema, oracleMapUses(t, def))) // only columns the input has
	case *task.GroupBySpec:
		oracleAddCols(out[0], t.GroupBy)
		for _, a := range t.Aggs {
			if a.ApplyOn != "" {
				out[0][a.ApplyOn] = true
			}
		}
	case *task.ProjectSpec:
		oracleCopySet(out[0], liveOut)
	case *task.SortSpec:
		oracleCopySet(out[0], liveOut)
		oracleAddCols(out[0], oracleOrderCols(t.OrderBy))
	case *task.DistinctSpec:
		oracleCopySet(out[0], liveOut)
		if len(t.Columns) == 0 {
			if ins[0].Schema != nil {
				oracleAddCols(out[0], ins[0].Schema.Names())
			} else {
				return oracleAllLive(ins)
			}
		} else {
			oracleAddCols(out[0], t.Columns)
		}
	case *task.UnionSpec:
		for i := range out {
			oracleCopySet(out[i], liveOut)
		}
	case *task.LimitSpec:
		oracleCopySet(out[0], liveOut)
	case *task.TopNSpec:
		oracleCopySet(out[0], liveOut)
		oracleAddCols(out[0], t.GroupBy)
		oracleAddCols(out[0], oracleOrderCols(t.OrderBy))
	case *task.JoinSpec:
		oracleLiveInJoin(t, ins, liveOut, out)
	default:
		return oracleAllLive(ins)
	}
	return out
}

// oracleLiveInJoin maps live (possibly projected) join outputs back to each
// side's columns and keeps the join keys live.
func oracleLiveInJoin(t *task.JoinSpec, ins []flowcheck.Input, liveOut map[string]bool, out []map[string]bool) {
	if len(ins) != 2 {
		for i := range out {
			if ins[i].Schema != nil {
				oracleAddCols(out[i], ins[i].Schema.Names())
			}
		}
		return
	}
	// Live output → qualified name.
	qualified := map[string]bool{}
	if len(t.Project) > 0 {
		for _, p := range t.Project {
			if liveOut[p.Out] {
				qualified[p.Qualified] = true
			}
		}
	} else {
		oracleCopySet(qualified, liveOut)
	}
	for i, in := range ins {
		keys := t.LeftKeys
		if in.Name == t.RightName {
			keys = t.RightKeys
		}
		oracleAddCols(out[i], keys)
		prefix := in.Name + "_"
		for q := range qualified {
			if col, ok := strings.CutPrefix(q, prefix); ok && in.Schema.Has(col) { // only a column the side has
				out[i][col] = true
			}
		}
	}
}

// oracleMapUses names the input columns one map operator reads.
func oracleMapUses(m *task.MapSpec, def *flowfile.TaskDef) []string {
	if n := m.Expr(); n != nil {
		return expr.Columns(n)
	}
	if def == nil || def.Config == nil {
		return nil
	}
	switch m.Operator {
	case "constant":
		return nil
	case "concat":
		return def.Config.StrList("transform")
	}
	if c := def.Config.Str("transform"); c != "" {
		return []string{c}
	}
	return nil
}

func oracleOrderCols(keys []task.OrderKey) []string {
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, k.Column)
	}
	return out
}

func oracleCopySet(dst, src map[string]bool) {
	for k := range src {
		dst[k] = true
	}
}

func oracleCopySetExcept(dst, src, except map[string]bool) {
	for k := range src {
		if !except[k] {
			dst[k] = true
		}
	}
}

func oracleAddCols(dst map[string]bool, cols []string) {
	for _, c := range cols {
		if c != "" {
			dst[c] = true
		}
	}
}

func oracleM2set(cols []string) map[string]bool {
	out := make(map[string]bool, len(cols))
	for _, c := range cols {
		out[c] = true
	}
	return out
}

// oracleAllLive marks every column of every input live.
func oracleAllLive(ins []flowcheck.Input) []map[string]bool {
	out := make([]map[string]bool, len(ins))
	for i, in := range ins {
		out[i] = map[string]bool{}
		if in.Schema != nil {
			oracleAddCols(out[i], in.Schema.Names())
		}
	}
	return out
}

// chainFlow is a flow of n tasks, each producing the next data object.
func chainFlow(n int) string {
	var b strings.Builder
	b.WriteString("D:\n  d0: [region, product, amount]\n\nD.d0:\n  source: data:sales.csv\n  format: csv\n\nF:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  D.d%d: D.d%d | T.t%d\n", i+1, i, i)
	}
	b.WriteString("\nT:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  t%d:\n    type: groupby\n    groupby: [region, product]\n    aggregates:\n", i)
		fmt.Fprintf(&b, "      - operator: sum\n        apply_on: amount\n        out_field: amount\n")
	}
	return b.String()
}

// benchFlow reads one of the benchmark-shaped flows the dag tests keep:
// the authoring, refresh, hot and join dashboards.
func benchFlow(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "dag", "testdata", name+".flow"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// analysisCorpus is what the oracle test analyzes: the fuzz seeds, every
// string literal of the examples and the engine's differential suite
// (those that parse are the flows they spell), the quickstart flow file,
// the chain flows and the benchmark-shaped flows.
func analysisCorpus(t *testing.T) []string {
	t.Helper()
	inputs := append([]string{chainFlow(9), chainFlow(40)}, fuzzSeeds...)
	for _, name := range []string{"author", "refresh", "hot", "join"} {
		inputs = append(inputs, benchFlow(t, name))
	}
	examples, _ := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	suite, _ := filepath.Glob(filepath.Join("..", "engine", "enginetest", "*_test.go"))
	if len(examples) != 4 || len(suite) == 0 {
		t.Fatalf("found %d examples and %d differential suite files", len(examples), len(suite))
	}
	for _, p := range append(examples, suite...) {
		file, err := parser.ParseFile(token.NewFileSet(), p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					inputs = append(inputs, s)
				}
			}
			return true
		})
	}
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", "quickstart", "dashboard.flow"))
	if err != nil {
		t.Fatal(err)
	}
	return append(inputs, string(b))
}

// checkAnalysisMatchesOracle lints f and requires the report, the Facts
// JSON and the hints to be byte for byte the oracle's. It reports
// whether the file parsed.
func checkAnalysisMatchesOracle(t *testing.T, src string, opts Options) bool {
	t.Helper()
	f, err := flowfile.Parse("oracle", src)
	if err != nil {
		return false
	}
	g, problems := dag.Resolve(f, opts.Tasks, opts.Shared)
	a := Analyze(g, nil)
	report, facts := a.Lint(problems, opts), a.Facts()
	wantReport, wantFacts, wantHints := oracleLint(a, problems, opts)
	for _, c := range []struct {
		what      string
		got, want any
	}{{"report", report, wantReport}, {"facts", facts, wantFacts}, {"hints", a.Hints(), wantHints}} {
		got, err := json.Marshal(c.got)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s\n%s\noracle's\n%s\nfor:\n%s", c.what, got, want, src)
		}
	}
	return true
}

// TestAnalysisMatchesOracle holds the analysis — bitset liveness, FL064,
// the facts export and the hints — to the oracle on every file of the
// corpus that parses.
func TestAnalysisMatchesOracle(t *testing.T) {
	opts := Options{Tasks: task.NewRegistry(), Connectors: connector.NewRegistry(connector.Options{DataDir: "."})}
	inputs, n := analysisCorpus(t), 0
	for _, src := range inputs {
		if checkAnalysisMatchesOracle(t, src, opts) {
			n++
		}
	}
	if n < 50 {
		t.Fatalf("compared %d of %d inputs, want at least 50 that parse", n, len(inputs))
	}
}

// FuzzAnalysisMatchesOracle is TestAnalysisMatchesOracle under mutation.
func FuzzAnalysisMatchesOracle(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Add(authoringFlow)
	f.Add(benchFlow(f, "join"))
	opts := Options{Tasks: task.NewRegistry(), Connectors: connector.NewRegistry(connector.Options{DataDir: "."})}
	f.Fuzz(func(t *testing.T, src string) { checkAnalysisMatchesOracle(t, src, opts) })
}

// oracleHas keeps the columns s has: what the oracle's map cases read
// of a map operator's inputs.
func oracleHas(s *schema.Schema, cols []string) []string {
	var out []string
	for _, c := range cols {
		if s.Has(c) {
			out = append(out, c)
		}
	}
	return out
}

// oracleKeep is the subset of a set that s has.
func oracleKeep(set map[string]bool, s *schema.Schema) map[string]bool {
	out := map[string]bool{}
	for c := range set {
		if s.Has(c) {
			out[c] = true
		}
	}
	return out
}

// oracleNewFacts is NewFacts: it returns an empty fact set.
func oracleNewFacts() *flowcheck.Facts {
	return &flowcheck.Facts{Objects: map[string]*flowcheck.ObjectFacts{}}
}

// oracleRecord is Facts.Record: it stores one object's facts, replacing any previous record.
func oracleRecord(f *flowcheck.Facts, object, producer string, sc flowcheck.Scope, card flowcheck.Card, verdict string) {
	f.Objects[object] = &flowcheck.ObjectFacts{
		Producer: producer,
		Columns:  flowcheck.ScopeFacts(sc),
		Card:     card,
		Verdict:  verdict,
	}
}

// oracleAddDead is Facts.AddDead: it appends a dead-column record, keeping the list sorted for
// stable output.
func oracleAddDead(f *flowcheck.Facts, object, column string, computed bool) {
	f.Dead = append(f.Dead, flowcheck.DeadColumn{Object: object, Column: column, Computed: computed})
	sort.Slice(f.Dead, func(i, j int) bool {
		if f.Dead[i].Object != f.Dead[j].Object {
			return f.Dead[i].Object < f.Dead[j].Object
		}
		return f.Dead[i].Column < f.Dead[j].Column
	})
}
