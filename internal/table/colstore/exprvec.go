package colstore

import (
	"fmt"
	"strings"

	"shareinsights/internal/expr"
	"shareinsights/internal/schema"
	"shareinsights/internal/value"
)

// VecEval evaluates a compiled expression over a batch, producing one
// vector of the batch's length. Like the row evaluator (expr.Eval) it
// cannot fail at run time: all binding errors surface at compile time.
type VecEval func(b *Batch) *Vec

// CompileVec compiles an expression AST against a schema into a
// vectorized evaluator. The result is element-for-element identical to
// binding and evaluating the same AST with the row evaluator: hot
// same-kind comparisons and arithmetic run as tight typed loops, and
// every other kind combination falls back to a per-element loop over
// the exact scalar semantics (value.Compare, expr.Arith, Truthy).
func CompileVec(n expr.Node, s *schema.Schema) (VecEval, error) {
	switch t := n.(type) {
	case *expr.Lit:
		val := t.Val
		return func(b *Batch) *Vec { return constVec(val, b.length) }, nil
	case *expr.Col:
		i := s.Index(t.Name)
		if i < 0 {
			return nil, fmt.Errorf("colstore: column %q not found in %s", t.Name, s)
		}
		return func(b *Batch) *Vec { return b.cols[i] }, nil
	case *expr.Unary:
		x, err := CompileVec(t.X, s)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case "-":
			return func(b *Batch) *Vec { return vecNeg(x(b)) }, nil
		case "not", "!":
			return func(b *Batch) *Vec { return vecNot(x(b)) }, nil
		}
		return nil, fmt.Errorf("colstore: unknown unary operator %q", t.Op)
	case *expr.Tuple:
		return nil, fmt.Errorf("colstore: value list is only valid after 'in'")
	case *expr.Binary:
		return compileBinary(t, s)
	}
	return nil, fmt.Errorf("colstore: unsupported expression node %T", n)
}

// CompileVecSrc parses and compiles an expression source string.
func CompileVecSrc(src string, s *schema.Schema) (VecEval, error) {
	n, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileVec(n, s)
}

func compileBinary(n *expr.Binary, s *schema.Schema) (VecEval, error) {
	l, err := CompileVec(n.L, s)
	if err != nil {
		return nil, err
	}
	// `in` with a value list has no right-hand evaluator.
	if tup, ok := n.R.(*expr.Tuple); ok {
		if n.Op != "in" {
			return nil, fmt.Errorf("colstore: value list is only valid after 'in'")
		}
		items := make([]VecEval, len(tup.Items))
		for i, it := range tup.Items {
			ev, err := CompileVec(it, s)
			if err != nil {
				return nil, err
			}
			items[i] = ev
		}
		return func(b *Batch) *Vec { return vecIn(l(b), evalAll(items, b)) }, nil
	}
	r, err := CompileVec(n.R, s)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "and", "&&":
		return func(b *Batch) *Vec { return vecAnd(l(b), r(b)) }, nil
	case "or", "||":
		return func(b *Batch) *Vec { return vecOr(l(b), r(b)) }, nil
	case "<":
		return cmpVecEval(l, r, func(c int) bool { return c < 0 }), nil
	case "<=":
		return cmpVecEval(l, r, func(c int) bool { return c <= 0 }), nil
	case ">":
		return cmpVecEval(l, r, func(c int) bool { return c > 0 }), nil
	case ">=":
		return cmpVecEval(l, r, func(c int) bool { return c >= 0 }), nil
	case "==", "=":
		return cmpVecEval(l, r, func(c int) bool { return c == 0 }), nil
	case "!=":
		return cmpVecEval(l, r, func(c int) bool { return c != 0 }), nil
	case "contains":
		return func(b *Batch) *Vec { return vecContains(l(b), r(b)) }, nil
	case "in":
		return cmpVecEval(l, r, func(c int) bool { return c == 0 }), nil
	case "+", "-", "*", "/", "%":
		op := n.Op
		return func(b *Batch) *Vec { return vecArith(op, l(b), r(b)) }, nil
	}
	return nil, fmt.Errorf("colstore: unknown operator %q", n.Op)
}

func evalAll(evs []VecEval, b *Batch) []*Vec {
	out := make([]*Vec, len(evs))
	for i, ev := range evs {
		out[i] = ev(b)
	}
	return out
}

// constVec builds a broadcast vector holding one literal value.
func constVec(val value.V, n int) *Vec {
	v := &Vec{kind: val.Kind(), length: n, constant: true}
	switch val.Kind() {
	case value.Bool:
		v.bools = []bool{val.Bool()}
	case value.Int:
		v.ints = []int64{val.Int()}
	case value.Float:
		v.floats = []float64{val.Float()}
	case value.String:
		v.strs = []string{val.Str()}
	case value.Null:
		// kind Null: every element reads as VNull.
	default:
		v.kind = anyKind
		v.anys = []value.V{val}
	}
	return v
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// stride returns the per-element index multiplier for a payload slice:
// 0 for a broadcast (constant) vector, 1 for a dense one.
func stride(v *Vec) int {
	if v.constant {
		return 0
	}
	return 1
}

// cmpVecEval builds the evaluator for one comparison operator.
func cmpVecEval(l, r VecEval, ok func(int) bool) VecEval {
	return func(b *Batch) *Vec { return vecCmp(ok, l(b), r(b)) }
}

// vecCmp compares two vectors element-wise under value.Compare,
// producing a bool vector. Same-kind int/float/string pairs with no
// nulls run as typed loops; everything else (nulls, mixed kinds,
// boxed vectors) goes through the scalar comparator.
func vecCmp(ok func(int) bool, a, b *Vec) *Vec {
	n := a.length
	out := newVec(value.Bool, n)
	if a.kind == b.kind && !a.hasNulls() && !b.hasNulls() {
		switch a.kind {
		case value.Int:
			xs, xe := a.ints, stride(a)
			ys, ye := b.ints, stride(b)
			for i := 0; i < n; i++ {
				out.bools[i] = ok(cmpInt64(xs[i*xe], ys[i*ye]))
			}
			return out
		case value.Float:
			xs, xe := a.floats, stride(a)
			ys, ye := b.floats, stride(b)
			for i := 0; i < n; i++ {
				out.bools[i] = ok(cmpFloat(xs[i*xe], ys[i*ye]))
			}
			return out
		case value.String:
			xe, ye := stride(a), stride(b)
			for i := 0; i < n; i++ {
				out.bools[i] = ok(strings.Compare(a.str(i*xe), b.str(i*ye)))
			}
			return out
		}
	}
	// Mixed int/float pairs compare numerically under value.Compare, so a
	// null-free pair can run as a typed float loop (an int column against
	// a float constant is the common filter shape).
	if numericPair(a, b) {
		for i := 0; i < n; i++ {
			out.bools[i] = ok(cmpFloat(floatAt(a, i), floatAt(b, i)))
		}
		return out
	}
	for i := 0; i < n; i++ {
		out.bools[i] = ok(value.Compare(a.At(i), b.At(i)))
	}
	return out
}

// numericPair reports whether both vectors are null-free int or float
// vectors (of differing kinds — same kinds took the typed loop above).
func numericPair(a, b *Vec) bool {
	num := func(k value.Kind) bool { return k == value.Int || k == value.Float }
	return num(a.kind) && num(b.kind) && !a.hasNulls() && !b.hasNulls()
}

// floatAt reads element i of a null-free int or float vector as float64,
// mirroring value.V.Float for those kinds.
func floatAt(v *Vec, i int) float64 {
	if v.kind == value.Int {
		return float64(v.ints[i*stride(v)])
	}
	return v.floats[i*stride(v)]
}

// vecArith applies an arithmetic operator element-wise under the exact
// expr.Arith coercion rules. Int/int pairs run as typed loops even with
// nulls (a null coerces to 0, which is what the zero payload stores);
// float/float pairs run typed only when null-free, because Arith on two
// nulls yields the int 0, not a float. Everything else falls back to
// the scalar path.
func vecArith(op string, a, b *Vec) *Vec {
	n := a.length
	if a.kind == value.Int && b.kind == value.Int {
		out := newVec(value.Int, n)
		xs, xe := a.ints, stride(a)
		ys, ye := b.ints, stride(b)
		switch op {
		case "+":
			for i := 0; i < n; i++ {
				out.ints[i] = xs[i*xe] + ys[i*ye]
			}
			return out
		case "-":
			for i := 0; i < n; i++ {
				out.ints[i] = xs[i*xe] - ys[i*ye]
			}
			return out
		case "*":
			for i := 0; i < n; i++ {
				out.ints[i] = xs[i*xe] * ys[i*ye]
			}
			return out
		case "/", "%":
			for i := 0; i < n; i++ {
				y := ys[i*ye]
				if y == 0 {
					out.setNull(i)
					continue
				}
				if op == "/" {
					out.ints[i] = xs[i*xe] / y
				} else {
					out.ints[i] = xs[i*xe] % y
				}
			}
			return out
		}
	}
	if a.kind == value.Float && b.kind == value.Float &&
		!a.hasNulls() && !b.hasNulls() && op != "%" {
		out := newVec(value.Float, n)
		xs, xe := a.floats, stride(a)
		ys, ye := b.floats, stride(b)
		switch op {
		case "+":
			for i := 0; i < n; i++ {
				out.floats[i] = xs[i*xe] + ys[i*ye]
			}
			return out
		case "-":
			for i := 0; i < n; i++ {
				out.floats[i] = xs[i*xe] - ys[i*ye]
			}
			return out
		case "*":
			for i := 0; i < n; i++ {
				out.floats[i] = xs[i*xe] * ys[i*ye]
			}
			return out
		case "/":
			for i := 0; i < n; i++ {
				y := ys[i*ye]
				if y == 0 {
					out.setNull(i)
					continue
				}
				out.floats[i] = xs[i*xe] / y
			}
			return out
		}
	}
	// Exactly one float side: Arith computes these in float ("%" stays
	// integral). Null-free only — a null in each operand at the same row
	// would yield the int 0 under Arith, not a float.
	if mixedNumeric(a, b) && op != "%" {
		out := newVec(value.Float, n)
		switch op {
		case "+":
			for i := 0; i < n; i++ {
				out.floats[i] = floatAt(a, i) + floatAt(b, i)
			}
			return out
		case "-":
			for i := 0; i < n; i++ {
				out.floats[i] = floatAt(a, i) - floatAt(b, i)
			}
			return out
		case "*":
			for i := 0; i < n; i++ {
				out.floats[i] = floatAt(a, i) * floatAt(b, i)
			}
			return out
		case "/":
			for i := 0; i < n; i++ {
				y := floatAt(b, i)
				if y == 0 {
					out.setNull(i)
					continue
				}
				out.floats[i] = floatAt(a, i) / y
			}
			return out
		}
	}
	vals := make([]value.V, n)
	for i := 0; i < n; i++ {
		vals[i] = expr.Arith(op, a.At(i), b.At(i))
	}
	return compress(vals)
}

// mixedNumeric reports a null-free int/float (or float/int) pair.
func mixedNumeric(a, b *Vec) bool {
	return numericPair(a, b) && (a.kind == value.Float) != (b.kind == value.Float)
}

// truthyBools evaluates Truthy element-wise. Null payload slots store
// zero values, which are exactly the falsy ones, so typed loops need no
// null checks.
func truthyBools(v *Vec) []bool {
	n := v.length
	out := make([]bool, n)
	switch v.kind {
	case value.Null:
		// all false
	case value.Bool:
		xs, xe := v.bools, stride(v)
		for i := 0; i < n; i++ {
			out[i] = xs[i*xe]
		}
	case value.Int:
		xs, xe := v.ints, stride(v)
		for i := 0; i < n; i++ {
			out[i] = xs[i*xe] != 0
		}
	case value.Float:
		xs, xe := v.floats, stride(v)
		for i := 0; i < n; i++ {
			out[i] = xs[i*xe] != 0
		}
	case value.String:
		xe := stride(v)
		for i := 0; i < n; i++ {
			out[i] = v.str(i*xe) != ""
		}
	default:
		for i := 0; i < n; i++ {
			out[i] = v.At(i).Truthy()
		}
	}
	return out
}

func boolsVec(bs []bool) *Vec {
	return &Vec{kind: value.Bool, bools: bs, length: len(bs)}
}

func vecAnd(a, b *Vec) *Vec {
	x, y := truthyBools(a), truthyBools(b)
	for i := range x {
		x[i] = x[i] && y[i]
	}
	return boolsVec(x)
}

func vecOr(a, b *Vec) *Vec {
	x, y := truthyBools(a), truthyBools(b)
	for i := range x {
		x[i] = x[i] || y[i]
	}
	return boolsVec(x)
}

func vecNot(a *Vec) *Vec {
	x := truthyBools(a)
	for i := range x {
		x[i] = !x[i]
	}
	return boolsVec(x)
}

// vecNeg negates element-wise: floats negate as floats, everything
// else through the int coercion — the row evaluator's unary minus.
func vecNeg(a *Vec) *Vec {
	n := a.length
	if a.kind == value.Int {
		// Null slots store 0; -null coerces to int 0 on the row path too.
		out := newVec(value.Int, n)
		xs, xe := a.ints, stride(a)
		for i := 0; i < n; i++ {
			out.ints[i] = -xs[i*xe]
		}
		return out
	}
	if a.kind == value.Float && !a.hasNulls() {
		out := newVec(value.Float, n)
		xs, xe := a.floats, stride(a)
		for i := 0; i < n; i++ {
			out.floats[i] = -xs[i*xe]
		}
		return out
	}
	vals := make([]value.V, n)
	for i := 0; i < n; i++ {
		v := a.At(i)
		if v.Kind() == value.Float {
			vals[i] = value.NewFloat(-v.Float())
		} else {
			vals[i] = value.NewInt(-v.Int())
		}
	}
	return compress(vals)
}

func vecContains(a, b *Vec) *Vec {
	n := a.length
	out := newVec(value.Bool, n)
	if a.kind == value.String && b.kind == value.String && !a.hasNulls() && !b.hasNulls() {
		xe, ye := stride(a), stride(b)
		for i := 0; i < n; i++ {
			out.bools[i] = strings.Contains(a.str(i*xe), b.str(i*ye))
		}
		return out
	}
	for i := 0; i < n; i++ {
		out.bools[i] = strings.Contains(a.At(i).Str(), b.At(i).Str())
	}
	return out
}

func vecIn(a *Vec, items []*Vec) *Vec {
	n := a.length
	out := newVec(value.Bool, n)
	for i := 0; i < n; i++ {
		v := a.At(i)
		for _, it := range items {
			if value.Equal(v, it.At(i)) {
				out.bools[i] = true
				break
			}
		}
	}
	return out
}
