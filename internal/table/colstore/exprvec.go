package colstore

import (
	"cmp"
	"fmt"
	"strings"

	"shareinsights/internal/expr"
	"shareinsights/internal/schema"
	"shareinsights/internal/value"
)

// VecEval is a compiled expression: a Fan steps it over a morsel at a
// time, as a filter's predicate or a map's expression. Evaluating it
// cannot fail: binding errors surface at compile.
type VecEval struct {
	ev     eval
	owned  bool // ev returns a vector the evaluation allocated, not a leaf's
	leaves []leaf
	size   int
}

// morselRows is how many rows an operator or a kernel handles at a time,
// so that every temporary is one morsel long whatever the batch. A
// multiple of 64, so that a window starts on a word of a null mask or of
// a filter's bitmap.
//
// BenchmarkMorselSize measures it (fastest of twenty runs on one core of a
// 2-vCPU Xeon; at 64, 256, 1,024, 4,096 and 16,384 rows and the whole
// batch). batch_join's weight, three multiplies and three adds over 60,000
// int rows: 1.23, 0.87, 0.80, 0.74, 0.77, 0.78 ms; 488, 491, 504, 553, 749,
// 970 KB. A group-by of 60,000 rows into 500 groups: 0.39, 0.39, 0.38,
// 0.36, 0.39, 0.42 ms; 71, 72, 75, 87, 136, 316 KB. A join of 60,000 rows
// with 500: 0.52, 0.54, 0.54, 0.53, 0.57, 0.61 ms; 556, 557, 560, 573, 622,
// 802 KB. Below a few hundred rows the expression's per-morsel work shows;
// above a few thousand every temporary's bytes grow back toward the whole
// batch's. 1,024 is inside the flat part of all three on both counts.
const morselRows = 1024

// eval is a compiled expression node: it evaluates t's current morsel.
type eval func(t *temps) *Vec

// leaf is batch column col, or the literal val when col is -1.
type leaf struct {
	col int
	val value.V
	lit *Vec // val broadcast, built once: evaluations never write it
}

// window is what a leaf reads in the current morsel: a literal as it is,
// a selection's indices sel[lo:hi], a dense column's payload and
// null-mask words from lo, all shared. A Fan's views are windows too.
type window struct {
	base *Vec
	v    Vec
	mask Bitmap
}

// temps is one evaluation's state: its leaves' windows and its spare
// vectors, results of operators that their consumer has finished
// reading, which a later operator writes into instead of allocating.
// Only the evaluation that allocated a vector ever holds it, so reusing
// one races with nothing; batch columns and literals are never in it.
type temps struct {
	leaves []window
	free   []*Vec
	buf    [4]*Vec
	cells  []value.V // a scalar fallback's cells
	n      int       // the morsel's rows
	// room is the length every new vector is allocated at: a stepped
	// evaluation's morsels differ in length (see over).
	room int
}

// release hands x to later operators when the evaluation owns it.
func (t *temps) release(x *Vec, owned bool) {
	if owned {
		t.free = append(t.free, x)
	}
}

// vec returns a dense vector of kind k and length n for an operator's
// result: a released one of that kind —
// possibly one of the operator's own operands, which a loop may
// overwrite element by element as it reads them — or a new one. A
// reused vector's payload is stale and its null mask gone: the caller
// writes every element, the zero value in one it marks null.
func (t *temps) vec(k value.Kind, n int) *Vec {
	for i, v := range t.free {
		if v.kind == k && v.room() >= n {
			t.free = append(t.free[:i], t.free[i+1:]...)
			*v = part(v, 0, n)
			return v
		}
	}
	v := newVec(k, max(n, t.room))
	if t.room > n {
		*v = part(v, 0, n)
	}
	return v
}

// scalar is an operator's scalar fallback: the vector of cell(i) for the
// morsel's n rows, typed as compress types it — by the kind the cells
// share, else boxed. The cells go through one slice the evaluation
// reuses, and the vector comes from t.
func (t *temps) scalar(n int, cell func(i int) value.V) *Vec {
	if cap(t.cells) < n {
		t.cells = make([]value.V, max(n, t.room))
	}
	vals := t.cells[:n]
	for i := range vals {
		vals[i] = cell(i)
	}
	out := t.vec(cellKind(vals), n)
	out.fill(vals)
	return out
}

// room is how long a dense vector's payload can grow in place.
func (v *Vec) room() int {
	return cap(v.bools) + cap(v.ints) + cap(v.floats) + cap(v.strs) + cap(v.codes) + cap(v.anys)
}

// part returns elements [lo, hi) of dense vector v, sharing its payload,
// without a null mask.
func part(v *Vec, lo, hi int) Vec {
	w := *v
	w.length, w.nulls = hi-lo, nil
	w.bools, w.ints, w.floats = span(v.bools, lo, hi), span(v.ints, lo, hi), span(v.floats, lo, hi)
	w.strs, w.codes, w.anys = span(v.strs, lo, hi), span(v.codes, lo, hi), span(v.anys, lo, hi)
	return w
}

// span is s[lo:hi], or nil for a nil s.
func span[T any](s []T, lo, hi int) []T {
	if s == nil {
		return nil
	}
	return s[lo:hi]
}

// slide points the window at rows [lo, hi).
func (w *window) slide(lo, hi int) *Vec {
	switch c := w.base; {
	case c.constant || c.kind == value.Null:
		w.v.length = hi - lo
	case c.sel != nil:
		w.v.sel, w.v.length = c.sel[lo:hi], hi-lo
	default:
		w.v = part(c, lo, hi)
		if c.nulls != nil {
			w.mask.words = c.nulls.words[lo/64 : (hi+63)/64]
			w.v.nulls = &w.mask
		}
	}
	return &w.v
}

// CompileVec compiles an expression AST against a schema into a
// vectorized evaluator, the one executable form of an expression: what
// it yields for each row is what docs/SEMANTICS.md §4–5 say the
// expression means there, cell for cell and kind for kind. Hot same-kind
// comparisons and arithmetic run as tight typed loops over the columns
// (through their indices, for a selection), and every other kind
// combination falls back to a per-element loop over the scalar rules
// (value.Compare, expr.Arith, Truthy). Every operator node allocates its
// result; which operands did is known here, at compile time, so a typed
// loop writes into such an operand, or into one released earlier in the
// same evaluation, instead of a new vector. The operators run one morsel
// of morselRows rows at a time, so a temporary is a morsel long.
func CompileVec(n expr.Node, s *schema.Schema) (*VecEval, error) {
	return compileMorsels(n, s, morselRows)
}

// compileMorsels is CompileVec evaluating size rows at a time.
func compileMorsels(n expr.Node, s *schema.Schema, size int) (*VecEval, error) {
	e := &VecEval{leaves: make([]leaf, 0, 8), size: size}
	var err error
	if e.ev, e.owned, err = compile(n, s, &e.leaves); err != nil {
		return nil, err
	}
	return e, nil
}

// setBits sets keep's bits for r's truthy rows, clearing the others.
func setBits(keep *Bitmap, r *Vec) {
	bools := r.bools // a dense bool vector's payload, else nil
	if r.kind != value.Bool || r.sel != nil || r.constant {
		bools = nil
	}
	for i := 0; i < r.length; i += 64 {
		var word uint64
		for j := range min(64, r.length-i) {
			if bools != nil && bools[i+j] || bools == nil && r.truthy(i+j) {
				word |= 1 << j
			}
		}
		keep.words[i/64] = word
	}
}

// over returns the state that steps e over view one morsel at a time,
// allocated once for all of them: view's vectors change in place between
// steps, are at most size rows long and have no holes.
func (e *VecEval) over(view *Batch, size int) *temps {
	t := &temps{leaves: make([]window, len(e.leaves)), room: size}
	t.free = t.buf[:0]
	for i, l := range e.leaves {
		t.leaves[i].base = l.vec(view)
	}
	return t
}

// step evaluates e over the view's first n rows with t, the state over
// returned: into keep's bits when keep is not nil, returning nil, else
// into a vector the caller hands back with t.release(r, e.owned) once it
// has read it, so that the next step writes into it.
func (e *VecEval) step(t *temps, n int, keep *Bitmap) *Vec {
	t.n = n
	for i := range t.leaves {
		t.leaves[i].v = *t.leaves[i].base
	}
	if !e.owned && keep == nil {
		return t.leaves[0].slide(0, n)
	}
	r := e.ev(t)
	if keep != nil {
		setBits(keep, r)
		t.release(r, e.owned)
		return nil
	}
	return r
}

// vec returns the vector a window of the leaf over batch b reads: the
// literal, or the column, gathered first when it is a selection with
// holes — the typed loops read payload slots, which a hole lacks.
func (l leaf) vec(b *Batch) *Vec {
	if l.col < 0 {
		return l.lit
	}
	if v := b.cols[l.col]; v.holes() {
		return v.dense()
	}
	return b.cols[l.col]
}

// compile compiles one node, appending its leaves to leaves. owned
// reports that its evaluator returns a vector the evaluation allocated
// (every operator's), not a window of a batch column or a literal.
func compile(n expr.Node, s *schema.Schema, leaves *[]leaf) (ev eval, owned bool, err error) {
	switch t := n.(type) {
	case *expr.Lit:
		return addLeaf(leaves, leaf{col: -1, val: t.Val, lit: constVec(t.Val, 0)}), false, nil
	case *expr.Col:
		i := s.Index(t.Name)
		if i < 0 {
			return nil, false, fmt.Errorf("colstore: column %q not found in %s", t.Name, s)
		}
		return addLeaf(leaves, leaf{col: i}), false, nil
	case *expr.Unary:
		x, own, err := compile(t.X, s, leaves)
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
		return func(t *temps) *Vec {
			a := x(t)
			t.release(a, own)
			return op(a, t)
		}, true, nil
	case *expr.Tuple:
		return nil, false, fmt.Errorf("colstore: value list is only valid after 'in'")
	case *expr.Binary:
		ev, err := compileBinary(t, s, leaves)
		return ev, true, err
	}
	return nil, false, fmt.Errorf("colstore: unsupported expression node %T", n)
}

// addLeaf appends l and returns the evaluator of its window.
func addLeaf(leaves *[]leaf, l leaf) eval {
	i := len(*leaves)
	*leaves = append(*leaves, l)
	return func(t *temps) *Vec { return t.leaves[i].slide(0, t.n) }
}

func compileBinary(n *expr.Binary, s *schema.Schema, leaves *[]leaf) (eval, error) {
	l, lown, err := compile(n.L, s, leaves)
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
			ev, _, err := compile(it, s, leaves)
			if err != nil {
				return nil, err
			}
			items[i] = ev
		}
		return func(t *temps) *Vec {
			a := l(t)
			vals := make([]*Vec, len(items))
			for i, ev := range items {
				vals[i] = ev(t)
			}
			return vecIn(a, vals, t)
		}, nil
	}
	r, rown, err := compile(n.R, s, leaves)
	if err != nil {
		return nil, err
	}
	binary := func(op func(a, b *Vec, t *temps) *Vec) eval {
		return func(t *temps) *Vec {
			x, y := l(t), r(t)
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
		return binary(vecLogic(false)), nil
	case "or", "||":
		return binary(vecLogic(true)), nil
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
	out := t.vec(value.Bool, n)
	same := a.kind == b.kind && !a.hasNulls() && !b.hasNulls()
	switch {
	case same && a.kind == value.Int:
		for i := 0; i < n; i++ {
			out.bools[i] = ok(cmp.Compare(a.ints[a.slot(i)], b.ints[b.slot(i)]))
		}
	case same && a.kind == value.Float:
		for i := 0; i < n; i++ {
			out.bools[i] = ok(cmpFloat(a.floats[a.slot(i)], b.floats[b.slot(i)]))
		}
	case same && a.kind == value.String:
		for i := 0; i < n; i++ {
			out.bools[i] = ok(strings.Compare(a.str(a.slot(i)), b.str(b.slot(i))))
		}
	case numericPair(a, b):
		// Mixed int/float pairs compare numerically under value.Compare, so
		// a null-free pair can run as a typed float loop (an int column
		// against a float constant is the common filter shape).
		for i := 0; i < n; i++ {
			out.bools[i] = ok(cmpFloat(floatAt(a, i), floatAt(b, i)))
		}
	default:
		// out may be a released bool operand, whose element i is read
		// before it is written; a bool result never has a null mask.
		for i := 0; i < n; i++ {
			out.bools[i] = ok(value.Compare(a.At(i), b.At(i)))
		}
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
	return t.scalar(n, func(i int) value.V { return expr.Arith(op, a.At(i), b.At(i)) })
}

// truthy reports whether element i is Truthy. Null payload slots store
// zero values, which are exactly the falsy ones, so it checks no nulls.
func (v *Vec) truthy(i int) bool {
	switch s := v.slot(i); v.kind {
	case value.Bool:
		return v.bools[s]
	case value.Int:
		return v.ints[s] != 0
	case value.Float:
		return v.floats[s] != 0
	case value.String:
		return v.str(s) != ""
	}
	return v.At(i).Truthy()
}

// vecLogic (and, or) and vecNot read their operands' truthiness before
// they write element i, so their result may overwrite a bool operand.
func vecLogic(or bool) func(a, b *Vec, t *temps) *Vec {
	return func(a, b *Vec, t *temps) *Vec {
		out := t.vec(value.Bool, a.length)
		for i := range out.bools {
			x, y := a.truthy(i), b.truthy(i)
			out.bools[i] = x && y || or && (x || y)
		}
		return out
	}
}

func vecNot(a *Vec, t *temps) *Vec {
	out := t.vec(value.Bool, a.length)
	for i := range out.bools {
		out.bools[i] = !a.truthy(i)
	}
	return out
}

// vecNeg negates element-wise: floats negate as floats, everything
// else through the int coercion (SEMANTICS.md §4.3).
func vecNeg(a *Vec, t *temps) *Vec {
	n := a.length
	if a.kind == value.Int {
		// Null slots store 0, and -null is the int 0.
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
	return t.scalar(n, func(i int) value.V {
		v := a.At(i)
		if v.Kind() == value.Float {
			return value.NewFloat(-v.Float())
		}
		return value.NewInt(-v.Int())
	})
}

func vecContains(a, b *Vec, t *temps) *Vec {
	n := a.length
	out := t.vec(value.Bool, n) // as in vecCmp
	if a.kind == value.String && b.kind == value.String && !a.hasNulls() && !b.hasNulls() {
		for i := 0; i < n; i++ {
			out.bools[i] = strings.Contains(a.str(a.slot(i)), b.str(b.slot(i)))
		}
		return out
	}
	for i := 0; i < n; i++ {
		out.bools[i] = strings.Contains(a.At(i).Str(), b.At(i).Str())
	}
	return out
}

func vecIn(a *Vec, items []*Vec, t *temps) *Vec {
	n := a.length
	out := t.vec(value.Bool, n)
	for i := 0; i < n; i++ {
		v := a.At(i)
		out.bools[i] = false
		for _, it := range items {
			if value.Equal(v, it.At(i)) {
				out.bools[i] = true
				break
			}
		}
	}
	return out
}
