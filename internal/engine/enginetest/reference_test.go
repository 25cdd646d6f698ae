package enginetest

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"shareinsights/internal/dag"
	"shareinsights/internal/engine/batch"
	"shareinsights/internal/expr"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

// The reference is docs/SEMANTICS.md written as naively as it reads:
// group-by, join, sort, expression filters, maps, top-n, limit, project,
// distinct and union over lists of rows of value.V, one row at a time.
// Only an interaction filter's selection and user tasks run through their
// Spec.Exec. Every engine mode is held to it. It shares no code with the
// kernels but the scalar rules the text defines by: the registry's
// accumulators (§1.2), value.Compare (§3.3), expr.Arith (§4.3),
// value.Parse and the standard library's string and time functions
// (§11). A map operator's parameters are read from its task's definition
// in the flow, not through the operator.

// textEnv is every run's environment: the resources the map operators'
// dictionaries name.
var textEnv = &task.Env{Resources: map[string][]byte{
	"terms.txt":      []byte("# products\na1 => alpha\nb2,beta\nproduct\nC3 => gamma\n  east  \nalpha\n"),
	"cities.ind.csv": []byte("east,Bengal\nwest,Gujarat\nproduct,Nowhere\nmumbai,Maharashtra\n"),
}}

// refResult is a reference run: every data object of a graph, by name.
type refResult map[string]*table.Table

// names returns the run's data objects, sorted.
func (r refResult) names() []string {
	names := make([]string, 0, len(r))
	for n := range r {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tables is an engine run as a refResult: every data object it answers.
func tables(res *batch.Result) refResult {
	out := refResult{}
	for _, name := range res.SortedNames() {
		out[name], _ = res.Table(name)
	}
	return out
}

// reference runs g as written, node by node in graph order, over
// sources; a failed run fails t.
func reference(t testing.TB, g *dag.Graph, sources map[string]*table.Table) refResult {
	t.Helper()
	out, err := runReference(g, sources)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runReference is reference, returning the first node's failure.
func runReference(g *dag.Graph, sources map[string]*table.Table) (refResult, error) {
	out := refResult{}
	for _, name := range g.Order {
		n := g.Nodes[name]
		if n.IsSource() {
			out[name] = sources[name]
			continue
		}
		in := make([]*table.Table, len(n.Inputs))
		for i, x := range n.Inputs {
			in[i] = out[x]
		}
		tb, err := refChain(n.Specs, n.Stages, in, n.Inputs)
		if err != nil {
			return nil, fmt.Errorf("reference D.%s: %w", name, err)
		}
		out[name] = tb
	}
	return out, nil
}

// refChain runs specs, the stages' parsed tasks, over in, the inputs
// named names, one stage at a time; a stage's output is the next stage's
// one unnamed input.
func refChain(specs []task.Spec, stages []dag.Stage, in []*table.Table, names []string) (*table.Table, error) {
	for i, sp := range specs {
		var out *table.Table
		var err error
		switch s := sp.(type) {
		case *task.GroupBySpec:
			out, err = refGroupBy(s, in[0])
		case *task.JoinSpec:
			out, err = refJoin(s, in, names)
		case *task.SortSpec:
			out, err = refSort(s, in[0])
		case *task.FilterSpec:
			if len(s.By) > 0 {
				out, err = sp.Exec(textEnv, in, names)
				break
			}
			out, err = refFilter(s, in[0])
		case *task.MapSpec:
			if s.Expr() == nil {
				out, err = refMap(s.Operator, stages[i].Def.Config, in[0])
				break
			}
			out, err = refMapExpr(s, in[0])
		case *task.TopNSpec:
			out, err = refTopN(s, in[0])
		case *task.LimitSpec:
			out, err = refLimit(s, in[0])
		case *task.ProjectSpec:
			out, err = refProject(s, in[0])
		case *task.DistinctSpec:
			out, err = refDistinct(s, in[0])
		case *task.UnionSpec:
			out, err = refUnion(s, in, names)
		default:
			out, err = sp.Exec(textEnv, in, names)
		}
		if err != nil {
			return nil, err
		}
		in, names = []*table.Table{out}, []string{""}
	}
	return in[0], nil
}

// refKey is SEMANTICS.md §1.1's key identity in §6's encoding: the kind
// and the display form of each of r's cells at cols, a zero byte between
// two.
func refKey(r table.Row, cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteByte(byte(r[c].Kind()))
		b.WriteString(r[c].String())
	}
	return b.String()
}

// refGroupBy is SEMANTICS.md §1: rows with one key fold into one group,
// each aggregate through a fresh accumulator from the registry — a bare
// count is handed a null per row — and the groups come out stably sorted
// by §1.3's order from the order they opened in.
func refGroupBy(s *task.GroupBySpec, in *table.Table) (*table.Table, error) {
	out, err := s.Out([]task.Input{{Schema: in.Schema()}})
	if err != nil {
		return nil, err
	}
	keys, _ := in.Schema().Require(s.GroupBy...)
	type group struct {
		row  table.Row
		accs []task.Accumulator
	}
	var groups []*group
	byKey := map[string]*group{}
	for _, r := range in.Rows() {
		g := byKey[refKey(r, keys)]
		if g == nil {
			g = &group{}
			for _, c := range keys {
				g.row = append(g.row, r[c])
			}
			for _, a := range s.Aggs {
				f, err := task.Aggregate(a.Operator)
				if err != nil {
					return nil, err
				}
				g.accs = append(g.accs, f())
			}
			byKey[refKey(r, keys)] = g
			groups = append(groups, g)
		}
		for i, a := range s.Aggs {
			v := value.VNull
			if a.ApplyOn != "" {
				v = r[in.Schema().Index(a.ApplyOn)]
			}
			g.accs[i].Add(v)
		}
	}
	rows := make([]table.Row, len(groups))
	for i, g := range groups {
		for _, acc := range g.accs {
			g.row = append(g.row, acc.Result())
		}
		rows[i] = g.row
	}
	var order []task.OrderKey
	if s.OrderByAggregates {
		order = append(order, task.OrderKey{Column: s.Aggs[0].OutField, Desc: true})
	}
	for _, k := range s.GroupBy {
		order = append(order, task.OrderKey{Column: k})
	}
	refSortRows(out.Index, rows, order)
	return table.FromRows(out, rows)
}

// refJoin is SEMANTICS.md §2: every left row in order with each right row
// of an equal key (§1.1's identity, so null keys join) in right-row
// order, a left row with none alone under a left or full outer join, and
// then, under a right or full outer join, every right row no left row
// joined, in order; a missing side's cells are null.
func refJoin(s *task.JoinSpec, in []*table.Table, names []string) (*table.Table, error) {
	out, err := s.Out([]task.Input{{Name: names[0], Schema: in[0].Schema()}, {Name: names[1], Schema: in[1].Schema()}})
	if err != nil {
		return nil, err
	}
	left, right := in[0], in[1]
	if (names[0] != s.LeftName || names[1] != s.RightName) && names[0] == s.RightName && names[1] == s.LeftName {
		left, right = right, left
	}
	// cols[i] is output column i's source: side (0 left, 1 right), column.
	var cols [][2]int
	if len(s.Project) == 0 {
		for c := range left.Schema().Len() {
			cols = append(cols, [2]int{0, c})
		}
		for c := range right.Schema().Len() {
			cols = append(cols, [2]int{1, c})
		}
	}
	for _, p := range s.Project {
		name, ok := strings.CutPrefix(p.Qualified, s.LeftName+"_")
		if c := left.Schema().Index(name); ok && c >= 0 {
			cols = append(cols, [2]int{0, c})
			continue
		}
		name, _ = strings.CutPrefix(p.Qualified, s.RightName+"_")
		cols = append(cols, [2]int{1, right.Schema().Index(name)})
	}
	lk, _ := left.Schema().Require(s.LeftKeys...)
	rk, _ := right.Schema().Require(s.RightKeys...)
	build := map[string][]int{}
	for i, r := range right.Rows() {
		build[refKey(r, rk)] = append(build[refKey(r, rk)], i)
	}
	var rows []table.Row
	emit := func(sides ...table.Row) {
		row := make(table.Row, len(cols))
		for i, c := range cols {
			row[i] = value.VNull
			if sides[c[0]] != nil {
				row[i] = sides[c[0]][c[1]]
			}
		}
		rows = append(rows, row)
	}
	keepLeft := s.Condition == task.LeftOuterJoin || s.Condition == task.FullOuterJoin
	keepRight := s.Condition == task.RightOuterJoin || s.Condition == task.FullOuterJoin
	joined := make([]bool, right.Len())
	for _, l := range left.Rows() {
		partners := build[refKey(l, lk)]
		if len(partners) == 0 && keepLeft {
			emit(l, nil)
		}
		for _, i := range partners {
			joined[i] = true
			emit(l, right.Row(i))
		}
	}
	for i, r := range right.Rows() {
		if keepRight && !joined[i] {
			emit(nil, r)
		}
	}
	return table.FromRows(out, rows)
}

// refSort is SEMANTICS.md §3: the input's rows, stably sorted.
func refSort(s *task.SortSpec, in *table.Table) (*table.Table, error) {
	if _, err := s.Out([]task.Input{{Schema: in.Schema()}}); err != nil {
		return nil, err
	}
	rows := slices.Clone(in.Rows())
	refSortRows(in.Schema().Index, rows, s.OrderBy)
	return table.FromRows(in.Schema(), rows)
}

// refSortRows is SEMANTICS.md §3.1–3.3: rows sorted stably by order,
// whose columns index resolves, under value.Compare, each key ascending
// or, Desc, descending.
func refSortRows(index func(string) int, rows []table.Row, order []task.OrderKey) {
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range order {
			c := index(k.Column)
			if d := value.Compare(rows[a][c], rows[b][c]); d != 0 {
				return (d < 0) != k.Desc
			}
		}
		return false
	})
}

// refEval is SEMANTICS.md §4.1–4.5: the value of expression n over row r,
// whose columns s names. An error — a column s lacks, a value list
// outside `in` — is the expression's whatever the row's cells.
func refEval(n expr.Node, s *schema.Schema, r table.Row) (value.V, error) {
	switch n := n.(type) {
	case *expr.Lit:
		return n.Val, nil
	case *expr.Col:
		if i := s.Index(n.Name); i >= 0 {
			return r[i], nil
		}
		return value.VNull, fmt.Errorf("column %q not found", n.Name)
	case *expr.Unary:
		x, err := refEval(n.X, s, r)
		switch {
		case err != nil:
			return x, err
		case n.Op != "-": // not, !
			return value.NewBool(!x.Truthy()), nil
		case x.Kind() == value.Float:
			return value.NewFloat(-x.Float()), nil
		}
		return value.NewInt(-x.Int()), nil
	case *expr.Binary:
		l, err := refEval(n.L, s, r)
		if err != nil {
			return l, err
		}
		if list, ok := n.R.(*expr.Tuple); ok && n.Op == "in" {
			in := false
			for _, item := range list.Items {
				v, err := refEval(item, s, r)
				if err != nil {
					return v, err
				}
				in = in || value.Equal(l, v)
			}
			return value.NewBool(in), nil
		}
		rv, err := refEval(n.R, s, r)
		if err != nil {
			return rv, err
		}
		c := value.Compare(l, rv)
		switch n.Op {
		case "and", "&&":
			return value.NewBool(l.Truthy() && rv.Truthy()), nil
		case "or", "||":
			return value.NewBool(l.Truthy() || rv.Truthy()), nil
		case "<":
			return value.NewBool(c < 0), nil
		case "<=":
			return value.NewBool(c <= 0), nil
		case ">":
			return value.NewBool(c > 0), nil
		case ">=":
			return value.NewBool(c >= 0), nil
		case "==", "=", "in":
			return value.NewBool(c == 0), nil
		case "!=":
			return value.NewBool(c != 0), nil
		case "contains":
			return value.NewBool(strings.Contains(l.Str(), rv.Str())), nil
		case "+", "-", "*", "/", "%":
			return expr.Arith(n.Op, l, rv), nil
		}
	}
	return value.VNull, fmt.Errorf("%s is not an expression", n)
}

// refEvalRows is refEval over every row of in, and over a row of nulls
// first, so that an empty input fails where the expression does.
func refEvalRows(n expr.Node, in *table.Table) ([]value.V, error) {
	if _, err := refEval(n, in.Schema(), make(table.Row, in.Schema().Len())); err != nil {
		return nil, err
	}
	vals := make([]value.V, in.Len())
	for i, r := range in.Rows() {
		vals[i], _ = refEval(n, in.Schema(), r)
	}
	return vals, nil
}

// refFilter is SEMANTICS.md §4.6: the rows whose expression is truthy,
// in input order.
func refFilter(s *task.FilterSpec, in *table.Table) (*table.Table, error) {
	if _, err := s.Out([]task.Input{{Schema: in.Schema()}}); err != nil {
		return nil, err
	}
	vals, err := refEvalRows(s.Expr, in)
	if err != nil {
		return nil, err
	}
	var rows []table.Row
	for i, r := range in.Rows() {
		if vals[i].Truthy() {
			rows = append(rows, r)
		}
	}
	return table.FromRows(in.Schema(), rows)
}

// refMapExpr is SEMANTICS.md §5: every row, with the expression's value
// as its output column: appended, or in place of the input column of
// that name.
func refMapExpr(s *task.MapSpec, in *table.Table) (*table.Table, error) {
	out, err := s.Out([]task.Input{{Schema: in.Schema()}})
	if err != nil {
		return nil, err
	}
	vals, err := refEvalRows(s.Expr(), in)
	if err != nil {
		return nil, err
	}
	col := out.Index(s.OutColumns()[0])
	rows := make([]table.Row, in.Len())
	for i, r := range in.Rows() {
		rows[i] = append(slices.Clone(r), value.VNull)[:out.Len()]
		rows[i][col] = vals[i]
	}
	return table.FromRows(out, rows)
}

// refTopN is SEMANTICS.md §6: the groups of rows with one key (§1.1) over
// the groupby columns — one group when there are none — in the order of
// their encoded keys as byte strings, each its first limit rows of §3's
// sort.
func refTopN(s *task.TopNSpec, in *table.Table) (*table.Table, error) {
	if _, err := s.Out([]task.Input{{Schema: in.Schema()}}); err != nil {
		return nil, err
	}
	keys, _ := in.Schema().Require(s.GroupBy...)
	groups := map[string][]table.Row{}
	var order []string
	for _, r := range in.Rows() {
		k := refKey(r, keys)
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Strings(order)
	var rows []table.Row
	for _, k := range order {
		g := groups[k]
		refSortRows(in.Schema().Index, g, s.OrderBy)
		rows = append(rows, g[:min(s.Limit, len(g))]...)
	}
	return table.FromRows(in.Schema(), rows)
}

// refLimit is SEMANTICS.md §7: the first limit rows, in order.
func refLimit(s *task.LimitSpec, in *table.Table) (*table.Table, error) {
	if _, err := s.Out([]task.Input{{Schema: in.Schema()}}); err != nil {
		return nil, err
	}
	return table.FromRows(in.Schema(), in.Rows()[:min(s.N, in.Len())])
}

// refProject is SEMANTICS.md §8: every row, with the named columns' cells
// in the named order.
func refProject(s *task.ProjectSpec, in *table.Table) (*table.Table, error) {
	out, err := s.Out([]task.Input{{Schema: in.Schema()}})
	if err != nil {
		return nil, err
	}
	var rows []table.Row
	for _, r := range in.Rows() {
		row := make(table.Row, len(s.Columns))
		for i, c := range s.Columns {
			row[i] = r[in.Schema().Index(c)]
		}
		rows = append(rows, row)
	}
	return table.FromRows(out, rows)
}

// refDistinct is SEMANTICS.md §9: the first row of each key (§1.1) over
// the named columns, or over every column, in input order.
func refDistinct(s *task.DistinctSpec, in *table.Table) (*table.Table, error) {
	if _, err := s.Out([]task.Input{{Schema: in.Schema()}}); err != nil {
		return nil, err
	}
	cols := s.Columns
	if len(cols) == 0 {
		cols = in.Schema().Names()
	}
	keys, _ := in.Schema().Require(cols...)
	seen := map[string]bool{}
	var rows []table.Row
	for _, r := range in.Rows() {
		if k := refKey(r, keys); !seen[k] {
			seen[k] = true
			rows = append(rows, r)
		}
	}
	return table.FromRows(in.Schema(), rows)
}

// refUnion is SEMANTICS.md §10: inputs of one schema, each one's rows in
// order, the inputs in order.
func refUnion(s *task.UnionSpec, in []*table.Table, names []string) (*table.Table, error) {
	ins := make([]task.Input, len(in))
	for i, t := range in {
		ins[i] = task.Input{Name: names[i], Schema: t.Schema()}
	}
	out, err := s.Out(ins)
	if err != nil {
		return nil, err
	}
	var rows []table.Row
	for _, t := range in {
		rows = append(rows, t.Rows()...)
	}
	return table.FromRows(out, rows)
}

// refMap is SEMANTICS.md §11: each row yields one output row per cell the
// operator makes from its cells in the columns it reads, the cell written
// over the output column or appended after the input's; a row that makes
// none is dropped.
func refMap(op string, cfg *flowfile.Node, in *table.Table) (*table.Table, error) {
	output, reads, cell, err := refOperator(op, cfg)
	if err != nil {
		return nil, err
	}
	cols, err := in.Schema().Require(reads...)
	if err != nil {
		return nil, err
	}
	out := in.Schema().ExtendOrSame(output)
	at := out.Index(output)
	var rows []table.Row
	for _, r := range in.Rows() {
		cells := make([]value.V, len(cols))
		for i, c := range cols {
			cells[i] = r[c]
		}
		for _, v := range cell(cells) {
			row := append(slices.Clone(r), value.VNull)[:out.Len()]
			row[at] = v
			rows = append(rows, row)
		}
	}
	return table.FromRows(out, rows)
}

// refOperator reads operator op's definition: the column it writes, the
// columns it reads, and the cells it makes from one row's cells of those.
func refOperator(op string, cfg *flowfile.Node) (output string, reads []string, cell func([]value.V) []value.V, err error) {
	transform, output := cfg.Str("transform"), cfg.Str("output")
	if output == "" {
		output = transform // §11.1–11.4, §11.7; the others require one
	}
	text := func(f func(string) string) func([]value.V) []value.V {
		return func(c []value.V) []value.V { return []value.V{value.NewString(f(c[0].Str()))} }
	}
	reads = []string{transform}
	switch op {
	case "upper":
		return output, reads, text(strings.ToUpper), nil
	case "lower":
		return output, reads, text(strings.ToLower), nil
	case "trim":
		return output, reads, text(strings.TrimSpace), nil
	case "replace":
		old, repl := cfg.Str("old"), cfg.Str("new")
		return output, reads, text(func(s string) string { return strings.ReplaceAll(s, old, repl) }), nil
	case "concat":
		sep := cfg.Str("separator")
		return output, cfg.StrList("transform"), func(c []value.V) []value.V {
			parts := make([]string, len(c))
			for i, v := range c {
				parts[i] = v.Str()
			}
			return []value.V{value.NewString(strings.Join(parts, sep))}
		}, nil
	case "constant":
		v := value.Parse(cfg.Str("value"))
		return output, nil, func([]value.V) []value.V { return []value.V{v} }, nil
	case "bucket":
		width := 1.0
		if w := cfg.Str("width"); w != "" {
			width = value.Parse(w).Float()
		}
		return output, reads, func(c []value.V) []value.V {
			if c[0].IsNull() {
				return []value.V{value.VNull}
			}
			b := math.Floor(c[0].Float()/width) * width
			if b == math.Trunc(b) && width == math.Trunc(width) {
				return []value.V{value.NewInt(int64(b))}
			}
			return []value.V{value.NewFloat(b)}
		}, nil
	case "date":
		inLayout, outLayout := refLayout(cfg.Str("input_format")), refLayout(cfg.Str("output_format"))
		return output, reads, func(c []value.V) []value.V {
			v, t, err := c[0], c[0].Time(), error(nil)
			switch {
			case v.Kind() == value.Time:
			case inLayout != "":
				t, err = time.Parse(inLayout, v.Str())
			case value.Parse(v.Str()).Kind() == value.Time:
				t = value.Parse(v.Str()).Time()
			default:
				err = fmt.Errorf("no time")
			}
			if err != nil {
				return []value.V{value.VNull}
			}
			return []value.V{value.NewString(t.Format(outLayout))}
		}, nil
	case "extract":
		dict, err := refDictionary(cfg.Str("dict"))
		return output, reads, func(c []value.V) []value.V {
			var out []value.V
			seen := map[string]bool{}
			for _, tok := range refTokens(c[0].Str()) {
				std, ok := dict[tok]
				if !ok {
					std, ok = dict[strings.TrimLeft(tok, "#@")]
				}
				if ok && !seen[std] {
					seen[std] = true
					out = append(out, value.NewString(std))
				}
			}
			return out
		}, err
	case "extract_location":
		name := cfg.Str("dict")
		if name == "" {
			name = "cities." + strings.ToLower(cfg.Str("country")) + ".csv"
		}
		gaz, err := refDictionary(name)
		return output, reads, func(c []value.V) []value.V {
			for _, tok := range refTokens(c[0].Str()) {
				if state, ok := gaz[tok]; ok {
					return []value.V{value.NewString(state)}
				}
			}
			return nil
		}, err
	case "extract_words":
		stop := strings.Fields(`the and for with that this from are was you your have has had
			not but all can will our out they them his her she him its it's just what when
			who how why where which there here been being were over under very more most
			into than then also about after before during between`)
		return output, reads, func(c []value.V) []value.V {
			var out []value.V
			for _, tok := range refTokens(c[0].Str()) {
				if len(tok) >= 3 && !strings.HasPrefix(tok, "http") && !slices.Contains(stop, tok) {
					out = append(out, value.NewString(tok))
				}
			}
			return out
		}, nil
	}
	return "", nil, nil, fmt.Errorf("reference: no map operator %q", op)
}

// refLayout is §11.8's translation of a Java pattern into a Go layout:
// at each position the first token listed that matches.
func refLayout(pattern string) string {
	tokens := [][2]string{{"yyyy", "2006"}, {"yy", "06"}, {"MMMM", "January"}, {"MMM", "Jan"}, {"MM", "01"},
		{"dd", "02"}, {"EEEE", "Monday"}, {"EEE", "Mon"}, {"E", "Mon"}, {"HH", "15"}, {"hh", "03"}, {"h", "3"},
		{"mm", "04"}, {"ss", "05"}, {"SSS", "000"}, {"a", "PM"}, {"ZZ", "-07:00"}, {"Z", "-0700"}, {"z", "MST"},
		{"M", "1"}, {"d", "2"}}
	var out string
next:
	for pattern != "" {
		for _, t := range tokens {
			if rest, ok := strings.CutPrefix(pattern, t[0]); ok {
				out, pattern = out+t[1], rest
				continue next
			}
		}
		out, pattern = out+pattern[:1], pattern[1:]
	}
	return out
}

// refDictionary is §11.9's dictionary resource: each variant, trimmed and
// lower-cased, to its standard name.
func refDictionary(name string) (map[string]string, error) {
	data, ok := textEnv.Resource(name)
	if !ok {
		return nil, fmt.Errorf("reference: no resource %q", name)
	}
	dict := map[string]string{}
	for _, ln := range strings.Split(string(data), "\n") {
		ln = strings.TrimSpace(ln)
		if ln == "" || ln[0] == '#' {
			continue
		}
		variant, std, ok := strings.Cut(ln, "=>")
		if !ok {
			variant, std, ok = strings.Cut(ln, ",")
		}
		if !ok {
			variant, std = ln, ln
		}
		dict[strings.ToLower(strings.TrimSpace(variant))] = strings.TrimSpace(std)
	}
	return dict, nil
}

// refTokens is §11.9's tokens: the lower-cased text's longest runs of
// token characters.
func refTokens(s string) []string {
	var toks []string
	var tok []rune
	for _, r := range strings.ToLower(s) + " " {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || strings.ContainsRune("_#@:/.", r) {
			tok = append(tok, r)
		} else if len(tok) > 0 {
			toks, tok = append(toks, string(tok)), nil
		}
	}
	return toks
}
