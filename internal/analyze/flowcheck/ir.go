package flowcheck

import (
	"fmt"
	"strconv"
	"strings"

	"shareinsights/internal/expr"
	"shareinsights/internal/value"
)

// Severity grades an issue; the values align with analyze.Severity so
// the linter can convert by number.
type Severity int

// Severity levels, least severe first.
const (
	Info Severity = iota
	Warning
	Error
)

// Issue is one finding produced by the checker. Rule is the stable
// flowlint rule ID: FL004 keeps its historical coarse-lattice wording;
// FL060–FL064 are the fine-lattice rules documented in docs/TYPES.md.
type Issue struct {
	// Task is the task whose expression raised the issue (set by
	// TransferStage).
	Task     string
	Rule     string
	Severity Severity
	Message  string
	Hint     string
}

// Expr is one node of the typed IR: the lowered form of an
// internal/expr AST node, annotated with its inferred Type and, when
// provable, its constant value, truthiness and numeric interval.
type Expr struct {
	// Op is "lit", "col", "tuple", a unary operator ("-", "not") or a
	// binary operator token.
	Op string
	// Col is the referenced column name when Op == "col".
	Col string
	// Type is the inferred static type.
	Type Type
	// Const, when non-nil, is the expression's value on every row.
	Const *value.V
	// Truth, when non-nil, is the expression's truthiness on every row —
	// known for some non-constant shapes (interval-proved comparisons).
	Truth *bool
	// Ivl bounds the expression's non-null numeric values.
	Ivl *Interval
	// Args are the lowered operands.
	Args []*Expr
	// Src is the original AST node, for error messages.
	Src expr.Node
}

// checker accumulates issues during one lowering.
type checker struct {
	sc     Scope
	task   string
	issues []Issue
}

func (c *checker) add(rule string, sev Severity, msg, hint string) {
	c.issues = append(c.issues, Issue{Task: c.task, Rule: rule, Severity: sev, Message: msg, Hint: hint})
}

// check lowers the expression of the named task against the scope,
// appending the issues it finds to issues.
func check(n expr.Node, sc Scope, task string, issues []Issue) (*Expr, []Issue) {
	c := &checker{sc: sc, task: task, issues: issues}
	e := c.lower(n)
	return e, c.issues
}

// setConst records a proven constant value: the type snaps to the
// value's exact type, truthiness follows, and numeric constants carry a
// point interval.
func (e *Expr) setConst(v value.V) {
	e.Const = &v
	e.Type = FromValue(v)
	t := v.Truthy()
	e.Truth = &t
	if v.Kind() == value.Int || v.Kind() == value.Float {
		e.Ivl = point(v.Float())
	}
}

// setTruth records known truthiness for a boolean-typed node.
func (e *Expr) setTruth(t bool) {
	if e.Const == nil {
		e.setConst(value.NewBool(t))
	}
}

// nullOnly reports a non-literal operand that is provably always null —
// the FL062 condition. A literal null written by the author is a
// deliberate null test and exempt.
func nullOnly(e *Expr) bool { return e.Type.Kind == KNone && e.Op != "lit" }

func (c *checker) lower(n expr.Node) *Expr {
	switch t := n.(type) {
	case *expr.Lit:
		e := &Expr{Op: "lit", Src: n, Type: FromValue(t.Val)}
		e.setConst(t.Val)
		return e
	case *expr.Col:
		e := &Expr{Op: "col", Col: t.Name, Src: n, Type: c.sc.TypeOf(t.Name)}
		if f, ok := c.sc[t.Name]; ok {
			if f.Const != nil {
				e.setConst(*f.Const)
			} else if f.Type.Kind == KNone {
				// A null-only column has a known value on every row even
				// without an explicit constant fact.
				e.Const = &value.VNull
				fa := false
				e.Truth = &fa
			}
			if e.Ivl == nil {
				e.Ivl = f.Ivl
			}
		}
		return e
	case *expr.Unary:
		return c.lowerUnary(t)
	case *expr.Tuple:
		e := &Expr{Op: "tuple", Src: n, Type: Unknown()}
		for i, it := range t.Items {
			a := c.lower(it)
			e.Args = append(e.Args, a)
			if i == 0 {
				e.Type = a.Type
			} else {
				e.Type = Join(e.Type, a.Type)
			}
		}
		return e
	case *expr.Binary:
		return c.lowerBinary(t)
	}
	return &Expr{Op: "lit", Src: n, Type: Unknown()}
}

func (c *checker) lowerUnary(t *expr.Unary) *Expr {
	x := c.lower(t.X)
	e := &Expr{Op: t.Op, Src: t, Args: []*Expr{x}}
	if t.Op == "-" {
		// Preserved coarse rule: negating known text is FL004.
		if x.Type.Coarse() == "text" {
			c.add("FL004", Warning,
				fmt.Sprintf("expression type mismatch: negating %s, a text value", t.X), "")
		}
		if x.Type.Kind == KTime {
			c.add("FL060", Error,
				fmt.Sprintf("negating %s, a time value: the result is its negated epoch nanoseconds, not a time", t.X), "")
		}
		if nullOnly(x) {
			c.addNullOnly("-", x)
		}
		// Runtime: a Float operand negates as Float, everything else
		// coerces through Int. Int ⊑ Float keeps the mixed case sound.
		k := KInt
		if x.Type.Kind == KFloat || x.Type.Kind == KAny {
			k = KFloat
		}
		e.Type = Type{Kind: k}
		if x.Const != nil {
			v := *x.Const
			if v.Kind() == value.Float {
				e.setConst(value.NewFloat(-v.Float()))
			} else {
				e.setConst(value.NewInt(-v.Int()))
			}
		}
		return e
	}
	// "not": total over every kind via truthiness.
	e.Type = Type{Kind: KBool}
	if x.Truth != nil {
		e.setTruth(!*x.Truth)
	}
	return e
}

func (c *checker) lowerBinary(t *expr.Binary) *Expr {
	switch t.Op {
	case "and", "&&", "or", "||":
		l, r := c.lower(t.L), c.lower(t.R)
		e := &Expr{Op: t.Op, Src: t, Args: []*Expr{l, r}, Type: Type{Kind: KBool}}
		and := t.Op == "and" || t.Op == "&&"
		lt, rt := l.Truth, r.Truth
		switch {
		case and && ((lt != nil && !*lt) || (rt != nil && !*rt)):
			e.setTruth(false)
		case and && lt != nil && *lt && rt != nil && *rt:
			e.setTruth(true)
		case !and && ((lt != nil && *lt) || (rt != nil && *rt)):
			e.setTruth(true)
		case !and && lt != nil && !*lt && rt != nil && !*rt:
			e.setTruth(false)
		}
		return e
	case "<", "<=", ">", ">=", "==", "=", "!=":
		l, r := c.lower(t.L), c.lower(t.R)
		return c.compare(t, t.Op, l, r)
	case "in":
		return c.lowerIn(t)
	case "contains":
		l, r := c.lower(t.L), c.lower(t.R)
		e := &Expr{Op: t.Op, Src: t, Args: []*Expr{l, r}, Type: Type{Kind: KBool}}
		if l.Type.Coarse() == "number" {
			c.add("FL004", Warning,
				fmt.Sprintf("expression type mismatch: 'contains' matches text, but %s is a number", t.L), "")
		}
		if l.Type.Kind == KBool || l.Type.Kind == KTime {
			c.add("FL060", Error,
				fmt.Sprintf("'contains' matches text, but %s is a %s value", t.L, l.Type.Coarse()), "")
		}
		for _, side := range []*Expr{l, r} {
			if nullOnly(side) {
				c.addNullOnly("contains", side)
			}
		}
		if l.Const != nil && r.Const != nil {
			e.setTruth(strings.Contains(l.Const.Str(), r.Const.Str()))
		}
		return e
	default: // arithmetic: + - * / %
		l, r := c.lower(t.L), c.lower(t.R)
		e := &Expr{Op: t.Op, Src: t, Args: []*Expr{l, r}}
		for _, side := range []struct {
			n expr.Node
			e *Expr
		}{{t.L, l}, {t.R, r}} {
			// Preserved coarse rule: arithmetic on known text or boolean.
			if co := side.e.Type.Coarse(); co == "text" || co == "boolean" {
				c.add("FL004", Warning,
					fmt.Sprintf("expression type mismatch: arithmetic %q on %s, a %s value", t.Op, side.n, co), "")
			}
			if side.e.Type.Kind == KTime {
				c.add("FL060", Error,
					fmt.Sprintf("arithmetic %q on %s, a time value: times coerce to epoch nanoseconds", t.Op, side.n), "")
			}
			if nullOnly(side.e) {
				c.addNullOnly(t.Op, side.e)
			}
		}
		e.Type = arithType(t.Op, l.Type, r.Type)
		if l.Const != nil && r.Const != nil {
			e.setConst(expr.Arith(t.Op, *l.Const, *r.Const))
		}
		return e
	}
}

func (c *checker) addNullOnly(op string, operand *Expr) {
	c.add("FL062", Error,
		fmt.Sprintf("%q has a null-only operand: %s is provably null on every row", op, operand.Src),
		"the operand's column is never assigned a non-null value; check the producing task")
}

// compare lowers one comparison, preserving the FL004 coarse-conflict
// warning, adding the FL061/FL062 fine rules, and folding verdicts from
// constants and intervals.
func (c *checker) compare(src expr.Node, op string, l, r *Expr) *Expr {
	e := &Expr{Op: op, Src: src, Args: []*Expr{l, r}, Type: Type{Kind: KBool}}
	if CoarseConflict(l.Type, r.Type) {
		c.add("FL004", Warning,
			fmt.Sprintf("expression type mismatch: %q compares %s (%s) with %s (%s)",
				op, l.Src, l.Type.Coarse(), r.Src, r.Type.Coarse()), "")
	}
	c.checkVacuousTimeText(op, l, r)
	c.checkVacuousTimeText(op, r, l)
	if nullOnly(l) || nullOnly(r) {
		// FL062 once per null-only side; the comparison's outcome is
		// determined by null ordering, but folding it here would stack an
		// FL063 on the same root cause, so the verdict is left unknown.
		for _, side := range []*Expr{l, r} {
			if nullOnly(side) {
				c.addNullOnly(op, side)
			}
		}
		return e
	}
	if l.Const != nil && r.Const != nil {
		e.setTruth(cmpOK(op, value.Compare(*l.Const, *r.Const)))
		return e
	}
	if v := intervalVerdict(op, l, r); v != nil {
		e.setTruth(*v)
	} else if v := intervalVerdict(flipCmp(op), r, l); v != nil {
		e.setTruth(*v)
	}
	return e
}

// checkVacuousTimeText is FL061: the coarse lattice exempts text/time
// comparisons because date columns often hold their string forms, but
// when the text side is a known constant that parses as neither a
// timestamp nor a number, value.Compare degrades to kind-tag ordering
// and the comparison can never hold by value.
func (c *checker) checkVacuousTimeText(op string, timeSide, textSide *Expr) {
	if timeSide.Type.Kind != KTime || textSide.Const == nil || textSide.Const.Kind() != value.String {
		return
	}
	s := textSide.Const.Str()
	if _, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
		return
	}
	if value.Parse(s).Kind() == value.Time {
		return
	}
	c.add("FL061", Error,
		fmt.Sprintf("comparison %q between %s (time) and %s is vacuous: the text parses as neither a timestamp nor a number, so values are ordered by kind tag only", op, timeSide.Src, textSide.Src),
		"compare against an ISO timestamp such as '2006-01-02'")
}

func (c *checker) lowerIn(t *expr.Binary) *Expr {
	l := c.lower(t.L)
	tup, ok := t.R.(*expr.Tuple)
	if !ok {
		// A single value after `in` degrades to equality at runtime; the
		// legacy linter did not coarse-check this shape, so neither do we.
		r := c.lower(t.R)
		e := &Expr{Op: "in", Src: t, Args: []*Expr{l, r}, Type: Type{Kind: KBool}}
		if nullOnly(l) || nullOnly(r) {
			for _, side := range []*Expr{l, r} {
				if nullOnly(side) {
					c.addNullOnly("in", side)
				}
			}
			return e
		}
		if l.Const != nil && r.Const != nil {
			e.setTruth(value.Compare(*l.Const, *r.Const) == 0)
		}
		return e
	}
	e := &Expr{Op: "in", Src: t, Args: []*Expr{l}, Type: Type{Kind: KBool}}
	if nullOnly(l) {
		c.addNullOnly("in", l)
	}
	allConst := l.Const != nil && !nullOnly(l)
	matched := false
	for _, it := range tup.Items {
		a := c.lower(it)
		e.Args = append(e.Args, a)
		if CoarseConflict(l.Type, a.Type) {
			c.add("FL004", Warning,
				fmt.Sprintf("expression type mismatch: 'in' list item %s (%s) can never match %s (%s)",
					it, a.Type.Coarse(), t.L, l.Type.Coarse()), "")
		}
		if a.Const == nil {
			allConst = false
		} else if l.Const != nil && value.Equal(*l.Const, *a.Const) {
			matched = true
		}
	}
	if l.Const != nil && !nullOnly(l) {
		// A matching constant item proves the whole test true regardless
		// of the remaining items; proving it false needs every item known.
		if matched {
			e.setTruth(true)
		} else if allConst {
			e.setTruth(false)
		}
	}
	return e
}

// arithType mirrors expr.Arith's result kinds on the lattice. '+' over
// two definite non-null strings is concatenation; any possibly-string or
// unknown operand forces the float envelope (lossy string coercion can
// promote); division may return null (zero divisor); modulo is integral
// and may return null.
func arithType(op string, l, r Type) Type {
	// Operand nullability does NOT propagate: Arith coerces a null
	// operand to 0 (value.Int/Float return 0 for null), so `+ - *` never
	// produce null. Only division by zero (and a fractional modulo
	// divisor truncating to an int64 zero) yields null.
	maybeStr := func(t Type) bool { return t.Kind == KString || t.Kind == KAny }
	if op == "+" && maybeStr(l) && maybeStr(r) {
		if l.Kind == KString && r.Kind == KString && !l.Nullable && !r.Nullable {
			// Both sides are runtime Strings on every row: concatenation.
			return Type{Kind: KString}
		}
		// Concatenation when both cells are strings, numeric addition
		// (possibly on null-coerced zeros) otherwise — either way non-null.
		return Type{Kind: KAny}
	}
	k := KInt
	switch {
	case l.Kind == KFloat || r.Kind == KFloat,
		l.Kind == KString || r.Kind == KString,
		l.Kind == KAny || r.Kind == KAny:
		k = KFloat
	}
	switch op {
	case "/":
		return Type{Kind: k, Nullable: true}
	case "%":
		return Type{Kind: KInt, Nullable: true}
	}
	return Type{Kind: k}
}

func cmpOK(op string, c int) bool {
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	case "==", "=":
		return c == 0
	case "!=":
		return c != 0
	}
	return false
}

// flipCmp mirrors an operator across swapped operands: a < b ⇔ b > a.
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// exactFloat bounds the range where int64↔float64 conversion is exact;
// interval proofs outside it are declined rather than risk rounding.
const exactFloat = 1 << 53

// intervalVerdict decides `l op r` when l carries an interval, l is a
// non-nullable numeric (nulls order below every value and would flip the
// verdict), and r is a numeric constant.
func intervalVerdict(op string, l, r *Expr) *bool {
	if l.Ivl == nil || l.Type.Nullable || !l.Type.Kind.Numeric() || r.Const == nil {
		return nil
	}
	if k := r.Const.Kind(); k != value.Int && k != value.Float {
		return nil
	}
	cv := r.Const.Float()
	iv := l.Ivl
	if cv > exactFloat || cv < -exactFloat ||
		(iv.HasLo && (iv.Lo > exactFloat || iv.Lo < -exactFloat)) ||
		(iv.HasHi && (iv.Hi > exactFloat || iv.Hi < -exactFloat)) {
		return nil
	}
	yes, no := true, false
	switch op {
	case ">":
		if iv.HasLo && iv.Lo > cv {
			return &yes
		}
		if iv.HasHi && iv.Hi <= cv {
			return &no
		}
	case ">=":
		if iv.HasLo && iv.Lo >= cv {
			return &yes
		}
		if iv.HasHi && iv.Hi < cv {
			return &no
		}
	case "<":
		if iv.HasHi && iv.Hi < cv {
			return &yes
		}
		if iv.HasLo && iv.Lo >= cv {
			return &no
		}
	case "<=":
		if iv.HasHi && iv.Hi <= cv {
			return &yes
		}
		if iv.HasLo && iv.Lo > cv {
			return &no
		}
	case "==", "=":
		if (iv.HasLo && iv.Lo > cv) || (iv.HasHi && iv.Hi < cv) {
			return &no
		}
		if iv.HasLo && iv.HasHi && iv.Lo == cv && iv.Hi == cv {
			return &yes
		}
	case "!=":
		if (iv.HasLo && iv.Lo > cv) || (iv.HasHi && iv.Hi < cv) {
			return &yes
		}
		if iv.HasLo && iv.HasHi && iv.Lo == cv && iv.Hi == cv {
			return &no
		}
	}
	return nil
}

// Verdict classifies a filter expression root: "always_true",
// "always_false", or "" when the outcome varies by row. FL063 reports
// the constant cases.
func Verdict(root *Expr) string {
	if root == nil || root.Truth == nil {
		return ""
	}
	if *root.Truth {
		return "always_true"
	}
	return "always_false"
}

// RefineFilter returns the scope downstream of a filter whose expression
// lowered to root: AND-conjuncts of the form `col CMP literal` narrow
// the column's interval, strip nullability (null orders below every
// value, so `col > 10` discards null cells), and pin constants for
// exact-string equality.
func RefineFilter(sc Scope, root *Expr) Scope {
	if root == nil {
		return sc
	}
	out := sc.clone()
	refineConjunct(out, root)
	return out
}

func refineConjunct(sc Scope, e *Expr) {
	switch e.Op {
	case "and", "&&":
		refineConjunct(sc, e.Args[0])
		refineConjunct(sc, e.Args[1])
	case "col":
		// A bare column conjunct keeps only truthy cells, and null is
		// never truthy.
		if f, ok := sc[e.Col]; ok && f.Type.Kind != KNone {
			f.Type.Nullable = false
			sc[e.Col] = f
		}
	case "<", "<=", ">", ">=", "==", "=":
		col, cst, op := normalizeCmp(e)
		if col == "" {
			return
		}
		refineColCmp(sc, col, cst, op)
	}
}

// normalizeCmp extracts the column side and constant side of a
// comparison, flipping the operator when the column is on the right.
func normalizeCmp(e *Expr) (col string, cst value.V, op string) {
	l, r := e.Args[0], e.Args[1]
	if l.Op == "col" && r.Const != nil {
		return l.Col, *r.Const, e.Op
	}
	if r.Op == "col" && l.Const != nil {
		return r.Col, *l.Const, flipCmp(e.Op)
	}
	return "", value.VNull, ""
}

func refineColCmp(sc Scope, col string, cst value.V, op string) {
	f, tracked := sc[col]
	if !tracked {
		f.Type = Unknown()
	} else if f.Type.Kind == KNone {
		return // null-only column: FL062 territory, nothing to narrow
	}
	if cst.IsNull() {
		switch op {
		case "==", "=":
			// Only null cells survive a `col == null` filter.
			f.Type = Type{Kind: KNone, Nullable: true}
			f.Const = &value.VNull
			f.Ivl = nil
			sc[col] = f
		case ">":
			// Compare(v, null) is +1 for every non-null v: the filter
			// keeps exactly the non-null cells.
			f.Type.Nullable = false
			sc[col] = f
		}
		return
	}
	// Null cells order below every non-null constant, so >, >= and ==
	// discard them.
	if op == ">" || op == ">=" || op == "==" || op == "=" {
		f.Type.Nullable = false
	}
	switch cst.Kind() {
	case value.Int, value.Float:
		if f.Type.Kind.Numeric() && !f.Type.Nullable {
			cf := cst.Float()
			switch op {
			case ">", ">=":
				f.Ivl = intersect(f.Ivl, &Interval{Lo: cf, HasLo: true})
			case "<", "<=":
				f.Ivl = intersect(f.Ivl, &Interval{Hi: cf, HasHi: true})
			case "==", "=":
				f.Ivl = intersect(f.Ivl, point(cf))
			}
		}
	case value.String:
		// A non-numeric string constant can only compare equal to its
		// exact string form (value.Compare's numeric-string path does not
		// apply), so equality pins the column.
		if op == "==" || op == "=" {
			if _, err := strconv.ParseFloat(strings.TrimSpace(cst.Str()), 64); err != nil {
				v := cst
				f.Type = Type{Kind: KString}
				f.Const = &v
				f.Ivl = nil
			}
		}
	}
	sc[col] = f
}
