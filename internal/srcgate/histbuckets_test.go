package srcgate

import (
	"go/ast"
	"go/token"
	"strconv"
)

// histCtors are the obs.Registry constructor methods whose bucket
// argument (index 2, after name and help) defines the histogram's
// upper bounds.
var histCtors = map[string]bool{
	"Histogram":    true,
	"HistogramVec": true,
}

// histBuckets flags bucket slices passed to obs.Histogram/HistogramVec
// that are statically wrong: an empty []float64{} literal (the registry
// would record nothing but the +Inf bucket, hiding every latency) or a
// literal whose constant elements are not strictly increasing (the
// exposition's cumulative counts then decrease, which Prometheus
// rejects at scrape time — long after the code shipped).
//
// The check is syntactic, mirroring metricname: any method call named
// Histogram/HistogramVec with a composite-literal third argument is
// treated as a registry constructor. Nil or computed bucket slices are
// skipped — nil selects the registry's defaults, and computed slices
// are validated at registration time.
func histBuckets(f *ast.File) []diagnostic {
	var out []diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !histCtors[sel.Sel.Name] {
			return true
		}
		lit, ok := call.Args[2].(*ast.CompositeLit)
		if !ok || !isFloatSliceType(lit.Type) {
			return true
		}
		if len(lit.Elts) == 0 {
			out = append(out, diagnostic{
				pos: lit.Pos(),
				msg: "empty bucket slice: a histogram with no finite buckets records only +Inf; pass nil for the registry defaults or list the bounds",
			})
			return true
		}
		prev, havePrev := 0.0, false
		for _, e := range lit.Elts {
			v, ok := constFloat(e)
			if !ok {
				// A computed element: the whole slice is beyond a
				// syntactic check, leave it to registration.
				return true
			}
			if havePrev && v <= prev {
				out = append(out, diagnostic{
					pos: e.Pos(),
					msg: "bucket bounds must be strictly increasing: " + formatFloatLit(v) + " follows " + formatFloatLit(prev),
				})
				return true
			}
			prev, havePrev = v, true
		}
		return true
	})
	return out
}

// isFloatSliceType reports whether the composite literal's type is
// written []float64 (the bucket parameter's type).
func isFloatSliceType(t ast.Expr) bool {
	arr, ok := t.(*ast.ArrayType)
	if !ok || arr.Len != nil {
		return false
	}
	id, ok := arr.Elt.(*ast.Ident)
	return ok && id.Name == "float64"
}

// constFloat evaluates an element that is a numeric literal, optionally
// under a leading unary minus.
func constFloat(e ast.Expr) (float64, bool) {
	neg := false
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.SUB {
		neg, e = true, u.X
	}
	lit, ok := e.(*ast.BasicLit)
	if !ok || (lit.Kind != token.INT && lit.Kind != token.FLOAT) {
		return 0, false
	}
	v, err := strconv.ParseFloat(lit.Value, 64)
	if err != nil {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// formatFloatLit renders a bound the way a developer would write it.
func formatFloatLit(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
