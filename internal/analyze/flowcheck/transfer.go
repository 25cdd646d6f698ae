package flowcheck

import (
	"strconv"
	"strings"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/task"
	"shareinsights/internal/value"
)

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
	// Issues are what lowering the stage's expressions found, in order,
	// each tagged with the task that owns the expression.
	Issues []Issue
}

// TransferStage computes the abstract post-state of one stage of task
// def from its inputs and bound output schema (nil: the stage did not
// bind, and only its issues mean anything), lowering each expression
// once. Facts are sound: every value an engine produces in a typed
// output column conforms to the fact's type, constants hold on every
// row, intervals bound every non-null cell, and the true row count lies
// inside Card.
func TransferStage(sp task.Spec, def *flowfile.TaskDef, ins []Input, out *schema.Schema) StageResult {
	res := StageResult{Scope: carryScope(ins, out), Card: CardUnknown()}
	if len(ins) > 0 {
		res.Card = ins[0].Card
	}
	switch t := sp.(type) {
	case *task.FilterSpec:
		transferFilter(t, def.Name, ins, &res)
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
		if !t.KeepsRows() {
			res.Card = CardUnknown()
		}
		f := mapFact(t, def, firstInput(ins).Scope, &res)
		for _, c := range t.OutColumns() {
			res.Scope[c] = f
		}
	case *task.JoinSpec:
		transferJoin(t, ins, &res)
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

func transferFilter(t *task.FilterSpec, owner string, ins []Input, res *StageResult) {
	in := firstInput(ins)
	res.Card = in.Card.dropMin()
	if t.Expr == nil {
		return
	}
	var root *Expr
	root, res.Issues = check(t.Expr, in.Scope, owner, res.Issues)
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
	case "min", "max", "first", "last":
		f := ColFact{Type: it}
		if g, ok := in[a.ApplyOn]; ok {
			f.Ivl = g.Ivl
			f.Const = g.Const
		}
		return f
	}
	return ColFact{Type: Unknown()}
}

// mapFact is the output fact of one map operator, matching the operator
// implementations: date may fail to parse (nullable string); the extract
// family and the string transforms always produce a concrete string
// (null inputs coerce to ""); bucket preserves the input's nullability
// and is integral exactly when its width is; constant carries its parsed
// literal; expr inherits the lowered expression's full fact, and its
// issues, owned by def, join the result's.
func mapFact(m *task.MapSpec, def *flowfile.TaskDef, in Scope, res *StageResult) ColFact {
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
		var e *Expr
		e, res.Issues = check(m.Expr(), in, def.Name, res.Issues)
		return ColFact{Type: e.Type, Const: e.Const, Ivl: e.Ivl}
	}
	return ColFact{Type: Unknown()}
}

// transferJoin carries each output column's facts from the one input
// column the join's binding reads, widening nullability on the side(s)
// an outer join may null-pad.
func transferJoin(t *task.JoinSpec, ins []Input, res *StageResult) {
	if len(ins) != 2 {
		return
	}
	l, r := ins[0], ins[1]
	k, swapped, ok := t.BindJoin(nil, task.Input{Name: l.Name, Schema: l.Schema}, task.Input{Name: r.Name, Schema: r.Schema})
	if swapped {
		l, r = r, l
	}
	res.Card = joinCard(t.Condition, l.Card, r.Card)
	res.Scope = Scope{}
	if !ok {
		return
	}
	for j, c := range k.Cols {
		side, padded := l, t.Condition == task.RightOuterJoin
		if c.Right {
			side, padded = r, t.Condition == task.LeftOuterJoin
		}
		if f, ok := side.Scope[side.Schema.Col(c.Col).Name]; ok {
			if padded || t.Condition == task.FullOuterJoin {
				f = ColFact{Type: Type{Kind: f.Type.Kind, Nullable: true}, Ivl: f.Ivl}
			}
			res.Scope[k.Out.Col(j).Name] = f
		}
	}
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
