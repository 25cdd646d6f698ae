package flowcheck

import (
	"strconv"
	"strings"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

// TaskLookup resolves a task name to its definition — the map-expr and
// parallel transfers need the raw config the spec parser consumed.
type TaskLookup func(name string) *flowfile.TaskDef

// Input is one resolved stage input: the data object's name, bound
// schema, column facts and row-count bound.
type Input struct {
	Name   string
	Schema *schema.Schema
	Scope  Scope
	Card   Card
}

// StageResult is the abstract post-state of one stage.
type StageResult struct {
	// Scope holds the output column facts.
	Scope Scope
	// Card bounds the output row count.
	Card Card
	// Verdict is "always_true" / "always_false" for a filter whose
	// expression has a proven constant truth value, else "".
	Verdict string
}

// mapExprSource returns the expression source of an expr map operator.
func mapExprSource(m *task.MapSpec, def *flowfile.TaskDef) string {
	if m == nil || m.Operator != "expr" || def == nil || def.Config == nil {
		return ""
	}
	return def.Config.Str("expression")
}

// TransferStage computes the abstract post-state of one stage from its
// inputs and already-bound output schema. Facts are sound: every value
// an engine produces in a typed output column Conforms to the fact's
// type, constants hold on every row, intervals bound every non-null
// cell, and the true row count lies inside Card.
func TransferStage(sp task.Spec, def *flowfile.TaskDef, lookup TaskLookup, ins []Input, out *schema.Schema) StageResult {
	res := StageResult{Scope: carryScope(ins, out), Card: CardUnknown()}
	if len(ins) > 0 {
		res.Card = ins[0].Card
	}
	switch t := sp.(type) {
	case *task.FilterSpec:
		transferFilter(t, ins, &res)
	case *task.GroupBySpec:
		res.Scope = Scope{}
		in := firstInput(ins)
		for _, k := range t.GroupBy {
			if f, ok := in.Scope[k]; ok {
				res.Scope[k] = f
			}
		}
		for _, a := range t.Aggs {
			res.Scope[a.OutField] = aggFact(a, in.Scope)
		}
		res.Card = res.Card.collapse()
	case *task.MapSpec:
		applyMapFacts(t, def, firstInput(ins).Scope, &res)
	case *task.ParallelSpec:
		for i, sub := range t.Subs {
			ms, ok := sub.(*task.MapSpec)
			if !ok || i >= len(t.Names) || lookup == nil {
				continue
			}
			applyMapFacts(ms, lookup(t.Names[i]), firstInput(ins).Scope, &res)
		}
	case *task.JoinSpec:
		transferJoin(t, ins, out, &res)
	case *task.TopNSpec:
		if len(t.GroupBy) == 0 {
			res.Card = res.Card.capMax(int64(t.Limit))
		} else {
			res.Card = res.Card.collapse()
		}
	case *task.LimitSpec:
		res.Card = res.Card.capMax(int64(t.N))
	case *task.DistinctSpec:
		res.Card = res.Card.collapse()
	case *task.UnionSpec:
		c := Card{}
		for i, in := range ins {
			if i == 0 {
				c = in.Card
			} else {
				c = addCard(c, in.Card)
			}
		}
		res.Card = c
	case *task.SortSpec, *task.ProjectSpec:
		// row set and values unchanged; carryScope already restricted to out
	default:
		// Unknown spec (custom func): kinds usually survive a custom
		// transform by name, but values may change arbitrarily — keep the
		// coarse kind (legacy FL004 power), drop constants, intervals and
		// non-null guarantees.
		for col, f := range res.Scope {
			res.Scope[col] = ColFact{Type: Type{Kind: f.Type.Kind, Nullable: true}}
		}
		res.Card = CardUnknown()
	}
	return res
}

func firstInput(ins []Input) Input {
	if len(ins) > 0 {
		return ins[0]
	}
	return Input{Scope: Scope{}, Card: CardUnknown()}
}

// carryScope is the default transfer: an output column inherits the join
// of the facts of every input that carries a same-named column. A column
// no input knows stays untracked.
func carryScope(ins []Input, out *schema.Schema) Scope {
	sc := Scope{}
	if out == nil {
		return sc
	}
	for _, c := range out.Columns() {
		var acc ColFact
		seen := false
		for _, in := range ins {
			if in.Schema == nil || !in.Schema.Has(c.Name) {
				continue
			}
			f, ok := in.Scope[c.Name]
			if !ok {
				f = ColFact{Type: Unknown()}
			}
			if !seen {
				acc, seen = f, true
			} else {
				acc = joinFact(acc, f)
			}
		}
		if seen {
			sc[c.Name] = acc
		}
	}
	return sc
}

// joinFact folds two column facts to their least upper bound.
func joinFact(a, b ColFact) ColFact {
	out := ColFact{Type: Join(a.Type, b.Type)}
	// Constants survive only when identical in kind and payload: Int 1
	// and Float 1.0 compare equal but have different exact types.
	if a.Const != nil && b.Const != nil &&
		a.Const.Kind() == b.Const.Kind() && value.Equal(*a.Const, *b.Const) {
		out.Const = a.Const
	}
	if a.Ivl != nil && b.Ivl != nil {
		var h Interval
		if a.Ivl.HasLo && b.Ivl.HasLo {
			h.Lo, h.HasLo = minF(a.Ivl.Lo, b.Ivl.Lo), true
		}
		if a.Ivl.HasHi && b.Ivl.HasHi {
			h.Hi, h.HasHi = maxF(a.Ivl.Hi, b.Ivl.Hi), true
		}
		if h.HasLo || h.HasHi {
			out.Ivl = &h
		}
	}
	return out
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func transferFilter(t *task.FilterSpec, ins []Input, res *StageResult) {
	in := firstInput(ins)
	res.Card = in.Card.dropMin()
	if t.Expression == "" {
		return
	}
	root := LowerQuiet(t.Expression, in.Scope)
	if root == nil {
		return
	}
	res.Verdict = Verdict(root)
	switch res.Verdict {
	case "always_false":
		res.Card = Card{}
	case "always_true":
		if len(t.By) == 0 && t.SourceWidget == "" {
			res.Card = in.Card
		}
	}
	res.Scope = RefineFilter(res.Scope, root)
}

// LowerQuiet lowers an expression discarding issues — transfer re-lowers
// filter predicates whose issues the lint rules already reported.
func LowerQuiet(src string, sc Scope) *Expr {
	e, _ := CheckExpr(src, sc)
	return e
}

// aggFact is the output fact of one group-by aggregate, matching the
// accumulator semantics exactly: count/count_distinct are non-null ints
// ≥ 1 per group; sum skips nulls and returns Int 0 for all-null groups
// (so a float input widens to the float envelope via int ⊑ float);
// avg/stddev/median return a float that is null only when every input
// cell was null; min/max/first/last carry the input type.
func aggFact(a task.AggSpec, in Scope) ColFact {
	it := in.TypeOf(a.ApplyOn)
	switch a.Operator {
	case "count", "count_distinct":
		return ColFact{Type: Type{Kind: KInt}, Ivl: &Interval{Lo: 1, HasLo: true}}
	case "sum":
		k := KFloat
		if it.Kind == KInt {
			k = KInt
		}
		return ColFact{Type: Type{Kind: k}}
	case "avg", "stddev", "median":
		return ColFact{Type: Type{Kind: KFloat, Nullable: it.Nullable || it.Kind == KNone}}
	case "min", "max":
		f := ColFact{Type: it}
		if g, ok := in[a.ApplyOn]; ok {
			f.Ivl = g.Ivl
			f.Const = g.Const
		}
		return f
	case "first", "last":
		f := ColFact{Type: it}
		if g, ok := in[a.ApplyOn]; ok {
			f.Ivl = g.Ivl
			f.Const = g.Const
		}
		return f
	}
	return ColFact{Type: Unknown()}
}

// fanOutOps are the map operators that change the row count: they drop
// non-matching rows and emit one row per match/token.
func fanOutOp(op string) bool {
	return op == "extract" || op == "extract_location" || op == "extract_words"
}

// applyMapFacts overlays one map operator's output-column facts onto the
// result scope and adjusts the cardinality for fan-out operators.
func applyMapFacts(m *task.MapSpec, def *flowfile.TaskDef, in Scope, res *StageResult) {
	if fanOutOp(m.Operator) {
		res.Card = CardUnknown()
	}
	f := mapFact(m, def, in)
	for _, c := range m.OutColumns() {
		res.Scope[c] = f
	}
}

// mapFact is the output fact of one map operator, matching the operator
// implementations: date may fail to parse (nullable string); the extract
// family and the string transforms always produce a concrete string
// (null inputs coerce to ""); bucket preserves the input's nullability
// and is integral exactly when its width is; constant carries its parsed
// literal; expr inherits the lowered expression's full fact.
func mapFact(m *task.MapSpec, def *flowfile.TaskDef, in Scope) ColFact {
	switch m.Operator {
	case "date":
		return ColFact{Type: Type{Kind: KString, Nullable: true}}
	case "extract", "extract_location", "extract_words",
		"upper", "lower", "trim", "concat", "replace", "case":
		return ColFact{Type: Type{Kind: KString}}
	case "bucket":
		k := KFloat
		nullable := true
		if def != nil && def.Config != nil {
			ws := strings.TrimSpace(def.Config.Str("width"))
			if ws == "" {
				k = KInt
			} else if w, err := strconv.ParseFloat(ws, 64); err == nil && w == float64(int64(w)) {
				k = KInt
			}
			nullable = in.TypeOf(def.Config.Str("transform")).Nullable
		}
		return ColFact{Type: Type{Kind: k, Nullable: nullable}}
	case "constant":
		if def != nil && def.Config != nil {
			v := value.Parse(def.Config.Str("value"))
			f := ColFact{Type: FromValue(v), Const: &v}
			if v.Kind() == value.Int || v.Kind() == value.Float {
				f.Ivl = point(v.Float())
			}
			return f
		}
	case "expr":
		if src := mapExprSource(m, def); src != "" {
			if e, _ := CheckExpr(src, in); e != nil {
				return ColFact{Type: e.Type, Const: e.Const, Ivl: e.Ivl}
			}
		}
	}
	return ColFact{Type: Unknown()}
}

// transferJoin qualifies each side's facts as <object>_<column>, widens
// nullability on the side(s) an outer join may null-pad, and applies the
// projection mapping.
func transferJoin(t *task.JoinSpec, ins []Input, out *schema.Schema, res *StageResult) {
	if len(ins) != 2 {
		return
	}
	l, r := ins[0], ins[1]
	if l.Name == t.RightName && r.Name == t.LeftName {
		l, r = r, l
	}
	res.Card = joinCard(t.Condition, l.Card, r.Card)
	nullPadded := func(side int) bool {
		switch t.Condition {
		case task.LeftOuterJoin:
			return side == 1
		case task.RightOuterJoin:
			return side == 0
		case task.FullOuterJoin:
			return true
		}
		return false
	}
	qual := Scope{}
	for i, in := range []Input{l, r} {
		for col, f := range in.Scope {
			if nullPadded(i) {
				f = ColFact{Type: Type{Kind: f.Type.Kind, Nullable: true}, Ivl: f.Ivl}
			}
			qual[in.Name+"_"+col] = f
		}
	}
	sc := Scope{}
	if len(t.Project) > 0 {
		for _, p := range t.Project {
			if f, ok := qual[p.Qualified]; ok {
				sc[p.Out] = f
			}
		}
	} else if out != nil {
		for _, c := range out.Columns() {
			if f, ok := qual[c.Name]; ok {
				sc[c.Name] = f
			}
		}
	}
	res.Scope = sc
}

// joinCard bounds a join's output rows: at most l*r matches plus one
// null-padded row per unmatched row on each preserved side; at least the
// preserved side's row count for outer joins.
func joinCard(cond task.JoinCondition, l, r Card) Card {
	c := mulCard(l, r)
	switch cond {
	case task.LeftOuterJoin:
		c.Min = l.Min
	case task.RightOuterJoin:
		c.Min = r.Min
	case task.FullOuterJoin:
		c.Min = l.Min
		if r.Min > c.Min {
			c.Min = r.Min
		}
	}
	return c
}
