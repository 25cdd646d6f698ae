package srcgate

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
)

// metricNameRe is the project naming contract for Prometheus metrics:
// an `si_` prefix so dashboards can scope to this service, then lower
// snake case. docs/OBSERVABILITY conventions and the obs registry
// tests assume it.
var metricNameRe = regexp.MustCompile(`^si_[a-z0-9_]+$`)

// metricCtors are the obs.Registry constructor methods whose first
// argument is the metric name.
var metricCtors = map[string]bool{
	"Counter":      true,
	"CounterVec":   true,
	"Gauge":        true,
	"GaugeVec":     true,
	"Histogram":    true,
	"HistogramVec": true,
}

// metricName flags string-literal metric names passed to obs registry
// constructors that do not match ^si_[a-z0-9_]+$. A name outside the
// contract silently lands in a dashboard-invisible namespace; worse,
// mixed-case names are invalid Prometheus exposition.
//
// The check is syntactic: any method call named Counter/Gauge/
// Histogram(+Vec) with a string-literal first argument is treated as a
// registry constructor. In this codebase those names are unique to
// *obs.Registry; a future colliding API would need a types-aware
// rewrite. Non-literal names are skipped — they are validated at
// registration time by the registry itself.
func metricName(f *ast.File) []diagnostic {
	var out []diagnostic
	metricNames(f, func(lit *ast.BasicLit, name string) {
		if !metricNameRe.MatchString(name) {
			out = append(out, diagnostic{
				pos: lit.Pos(),
				msg: fmt.Sprintf("metric name %q does not match ^si_[a-z0-9_]+$; prefix with si_ and use lower snake case",
					name),
			})
		}
	})
	return out
}

// metricNames calls fn with every string-literal metric name the file
// passes to a registry constructor.
func metricNames(f *ast.File, fn func(lit *ast.BasicLit, name string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !metricCtors[sel.Sel.Name] {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if name, err := strconv.Unquote(lit.Value); err == nil {
			fn(lit, name)
		}
		return true
	})
}
