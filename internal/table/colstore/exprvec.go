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

// eval is a compiled expression node. t is the evaluation's scratch.
type eval func(b *Batch, t *temps) *Vec

// temps is one evaluation's spare vectors: results of operators in the
// same evaluation that their consumer has finished reading. A later
// operator writes its own result into one instead of allocating. Only
// the evaluation that allocated a vector ever holds it, so reusing one
// races with nothing; batch columns and literals are never in it.
type temps struct {
	free []*Vec
	buf  [4]*Vec
}

// release hands x to later operators when the evaluation owns it.
func (t *temps) release(x *Vec, owned bool) {
	if owned {
		t.free = append(t.free, x)
	}
}

// vec returns a dense vector of kind k and length n for an operator's
// result: a released one of that kind — possibly one of the operator's
// own operands, which a typed loop may overwrite element by element as
// it reads them — or a new one. A reused vector's payload is stale and
// its null mask gone: the caller writes every element, the zero value
// in one it marks null.
func (t *temps) vec(k value.Kind, n int) *Vec {
	for i, v := range t.free {
		if v.kind == k {
			t.free = append(t.free[:i], t.free[i+1:]...)
			v.nulls = nil
			return v
		}
	}
	return newVec(k, n)
}

// CompileVec compiles an expression AST against a schema into a
// vectorized evaluator. The result is element-for-element identical to
// binding and evaluating the same AST with the row evaluator: hot
// same-kind comparisons and arithmetic run as tight typed loops over
// the columns (through their indices, for a selection), and every other
// kind combination falls back to a per-element loop over the exact
// scalar semantics (value.Compare, expr.Arith, Truthy). Every operator
// node allocates its result; which operands did is known here, at
// compile time, so a typed loop writes into such an operand, or into one
// released earlier in the same evaluation, instead of a new vector.
func CompileVec(n expr.Node, s *schema.Schema) (VecEval, error) {
	ev, _, err := compile(n, s)
	if err != nil {
		return nil, err
	}
	return func(b *Batch) *Vec {
		t := &temps{}
		t.free = t.buf[:0]
		return ev(b, t)
	}, nil
}

// compile compiles one node; owned reports that its evaluator returns a
// vector the evaluation allocated (every operator's), not a batch column
// or a literal.
func compile(n expr.Node, s *schema.Schema) (ev eval, owned bool, err error) {
	switch t := n.(type) {
	case *expr.Lit:
		val := t.Val
		return func(b *Batch, _ *temps) *Vec { return constVec(val, b.length) }, false, nil
	case *expr.Col:
		i := s.Index(t.Name)
		if i < 0 {
			return nil, false, fmt.Errorf("colstore: column %q not found in %s", t.Name, s)
		}
		return func(b *Batch, _ *temps) *Vec {
			// The typed loops read payload slots, which a hole lacks.
			if v := b.cols[i]; v.holes() {
				return v.dense()
			}
			return b.cols[i]
		}, false, nil
	case *expr.Unary:
		x, own, err := compile(t.X, s)
		if err != nil {
			return nil, false, err
		}
		var op func(a *Vec, t *temps) *Vec
		switch t.Op {
		case "-":
			op = vecNeg
		case "not", "!":
			op = vecNot
		default:
			return nil, false, fmt.Errorf("colstore: unknown unary operator %q", t.Op)
		}
		return func(b *Batch, t *temps) *Vec {
			a := x(b, t)
			t.release(a, own)
			return op(a, t)
		}, true, nil
	case *expr.Tuple:
		return nil, false, fmt.Errorf("colstore: value list is only valid after 'in'")
	case *expr.Binary:
		ev, err := compileBinary(t, s)
		return ev, true, err
	}
	return nil, false, fmt.Errorf("colstore: unsupported expression node %T", n)
}

// CompileVecSrc parses and compiles an expression source string.
func CompileVecSrc(src string, s *schema.Schema) (VecEval, error) {
	n, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileVec(n, s)
}

func compileBinary(n *expr.Binary, s *schema.Schema) (eval, error) {
	l, lown, err := compile(n.L, s)
	if err != nil {
		return nil, err
	}
	// `in` with a value list has no right-hand evaluator.
	if tup, ok := n.R.(*expr.Tuple); ok {
		if n.Op != "in" {
			return nil, fmt.Errorf("colstore: value list is only valid after 'in'")
		}
		items := make([]eval, len(tup.Items))
		for i, it := range tup.Items {
			ev, _, err := compile(it, s)
			if err != nil {
				return nil, err
			}
			items[i] = ev
		}
		return func(b *Batch, t *temps) *Vec {
			a := l(b, t)
			vals := make([]*Vec, len(items))
			for i, ev := range items {
				vals[i] = ev(b, t)
			}
			return vecIn(a, vals)
		}, nil
	}
	r, rown, err := compile(n.R, s)
	if err != nil {
		return nil, err
	}
	binary := func(op func(a, b *Vec, t *temps) *Vec) eval {
		return func(b *Batch, t *temps) *Vec {
			x, y := l(b, t), r(b, t)
			t.release(x, lown)
			t.release(y, rown)
			return op(x, y, t)
		}
	}
	cmp := func(ok func(int) bool) eval {
		return binary(func(a, b *Vec, t *temps) *Vec { return vecCmp(ok, a, b, t) })
	}
	switch n.Op {
	case "and", "&&":
		return binary(vecAnd), nil
	case "or", "||":
		return binary(vecOr), nil
	case "<":
		return cmp(func(c int) bool { return c < 0 }), nil
	case "<=":
		return cmp(func(c int) bool { return c <= 0 }), nil
	case ">":
		return cmp(func(c int) bool { return c > 0 }), nil
	case ">=":
		return cmp(func(c int) bool { return c >= 0 }), nil
	case "==", "=", "in":
		return cmp(func(c int) bool { return c == 0 }), nil
	case "!=":
		return cmp(func(c int) bool { return c != 0 }), nil
	case "contains":
		return binary(vecContains), nil
	case "+", "-", "*", "/", "%":
		op := n.Op
		return binary(func(a, b *Vec, t *temps) *Vec { return vecArith(op, a, b, t) }), nil
	}
	return nil, fmt.Errorf("colstore: unknown operator %q", n.Op)
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

// vecCmp compares two vectors element-wise under value.Compare,
// producing a bool vector. Same-kind int/float/string pairs with no
// nulls run as typed loops; everything else (nulls, mixed kinds,
// boxed vectors) goes through the scalar comparator.
func vecCmp(ok func(int) bool, a, b *Vec, t *temps) *Vec {
	n := a.length
	if a.kind == b.kind && !a.hasNulls() && !b.hasNulls() {
		switch a.kind {
		case value.Int:
			out := t.vec(value.Bool, n)
			for i := 0; i < n; i++ {
				out.bools[i] = ok(cmpInt64(a.ints[a.slot(i)], b.ints[b.slot(i)]))
			}
			return out
		case value.Float:
			out := t.vec(value.Bool, n)
			for i := 0; i < n; i++ {
				out.bools[i] = ok(cmpFloat(a.floats[a.slot(i)], b.floats[b.slot(i)]))
			}
			return out
		case value.String:
			out := t.vec(value.Bool, n)
			for i := 0; i < n; i++ {
				out.bools[i] = ok(strings.Compare(a.str(a.slot(i)), b.str(b.slot(i))))
			}
			return out
		}
	}
	// Mixed int/float pairs compare numerically under value.Compare, so a
	// null-free pair can run as a typed float loop (an int column against
	// a float constant is the common filter shape).
	if numericPair(a, b) {
		out := t.vec(value.Bool, n)
		for i := 0; i < n; i++ {
			out.bools[i] = ok(cmpFloat(floatAt(a, i), floatAt(b, i)))
		}
		return out
	}
	// The scalar loops read the operands' null masks: their result is
	// never written into an operand.
	out := newVec(value.Bool, n)
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
		return float64(v.ints[v.slot(i)])
	}
	return v.floats[v.slot(i)]
}

// vecArith applies an arithmetic operator element-wise under the exact
// expr.Arith coercion rules. Int/int pairs run as typed loops even with
// nulls (a null coerces to 0, which is what the zero payload stores);
// float/float pairs run typed only when null-free, because Arith on two
// nulls yields the int 0, not a float. Everything else falls back to
// the scalar path.
func vecArith(op string, a, b *Vec, t *temps) *Vec {
	n := a.length
	if a.kind == value.Int && b.kind == value.Int {
		out := t.vec(value.Int, n)
		switch op {
		case "+":
			for i := 0; i < n; i++ {
				out.ints[i] = a.ints[a.slot(i)] + b.ints[b.slot(i)]
			}
			return out
		case "-":
			for i := 0; i < n; i++ {
				out.ints[i] = a.ints[a.slot(i)] - b.ints[b.slot(i)]
			}
			return out
		case "*":
			for i := 0; i < n; i++ {
				out.ints[i] = a.ints[a.slot(i)] * b.ints[b.slot(i)]
			}
			return out
		case "/", "%":
			for i := 0; i < n; i++ {
				x, y := a.ints[a.slot(i)], b.ints[b.slot(i)]
				switch {
				case y == 0:
					out.ints[i] = 0
					out.setNull(i)
				case op == "/":
					out.ints[i] = x / y
				default:
					out.ints[i] = x % y
				}
			}
			return out
		}
	}
	// Exactly one float side computes in float too ("%" stays integral).
	// Null-free only — a null in each operand at the same row would
	// yield the int 0 under Arith, not a float.
	if op != "%" && numericPair(a, b) && (a.kind == value.Float || b.kind == value.Float) {
		out := t.vec(value.Float, n)
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
				x, y := floatAt(a, i), floatAt(b, i)
				if y == 0 {
					out.floats[i] = 0
					out.setNull(i)
					continue
				}
				out.floats[i] = x / y
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

// truthy returns Truthy element-wise: a dense bool vector's own payload
// (null slots hold false), which the caller must not write, or a new
// slice. Null payload slots store zero values, which are exactly the
// falsy ones, so typed loops need no null checks.
func truthy(v *Vec) []bool {
	if v.kind == value.Bool && v.sel == nil && !v.constant {
		return v.bools
	}
	n := v.length
	out := make([]bool, n)
	switch v.kind {
	case value.Null:
		// all false
	case value.Bool:
		for i := 0; i < n; i++ {
			out[i] = v.bools[v.slot(i)]
		}
	case value.Int:
		for i := 0; i < n; i++ {
			out[i] = v.ints[v.slot(i)] != 0
		}
	case value.Float:
		for i := 0; i < n; i++ {
			out[i] = v.floats[v.slot(i)] != 0
		}
	case value.String:
		for i := 0; i < n; i++ {
			out[i] = v.str(v.slot(i)) != ""
		}
	default:
		for i := 0; i < n; i++ {
			out[i] = v.At(i).Truthy()
		}
	}
	return out
}

// vecAnd, vecOr and vecNot read their operands' truthiness before they
// write element i, so their result may overwrite a bool operand.
func vecAnd(a, b *Vec, t *temps) *Vec {
	x, y := truthy(a), truthy(b)
	out := t.vec(value.Bool, a.length)
	for i := range out.bools {
		out.bools[i] = x[i] && y[i]
	}
	return out
}

func vecOr(a, b *Vec, t *temps) *Vec {
	x, y := truthy(a), truthy(b)
	out := t.vec(value.Bool, a.length)
	for i := range out.bools {
		out.bools[i] = x[i] || y[i]
	}
	return out
}

func vecNot(a *Vec, t *temps) *Vec {
	x := truthy(a)
	out := t.vec(value.Bool, a.length)
	for i := range out.bools {
		out.bools[i] = !x[i]
	}
	return out
}

// vecNeg negates element-wise: floats negate as floats, everything
// else through the int coercion — the row evaluator's unary minus.
func vecNeg(a *Vec, t *temps) *Vec {
	n := a.length
	if a.kind == value.Int {
		// Null slots store 0; -null coerces to int 0 on the row path too.
		out := t.vec(value.Int, n)
		for i := 0; i < n; i++ {
			out.ints[i] = -a.ints[a.slot(i)]
		}
		return out
	}
	if a.kind == value.Float && !a.hasNulls() {
		out := t.vec(value.Float, n)
		for i := 0; i < n; i++ {
			out.floats[i] = -a.floats[a.slot(i)]
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

func vecContains(a, b *Vec, t *temps) *Vec {
	n := a.length
	if a.kind == value.String && b.kind == value.String && !a.hasNulls() && !b.hasNulls() {
		out := t.vec(value.Bool, n)
		for i := 0; i < n; i++ {
			out.bools[i] = strings.Contains(a.str(a.slot(i)), b.str(b.slot(i)))
		}
		return out
	}
	out := newVec(value.Bool, n)
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
