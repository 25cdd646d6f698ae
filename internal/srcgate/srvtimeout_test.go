package srcgate

import "go/ast"

// srvTimeout flags net/http.Server composite literals that set neither
// ReadHeaderTimeout nor ReadTimeout. A server without one holds a
// goroutine and a connection for as long as a client cares to dribble
// header bytes — the slowloris shape — so every listener in this
// project must bound header reads (docs/SERVING.md). ReadTimeout
// counts because ReadHeaderTimeout falls back to it when zero.
//
// The check is syntactic: any composite literal whose type is
// <alias>.Server, with <alias> among the file's net/http import names,
// is treated as an http.Server. Literals built with unkeyed fields are
// skipped (the project writes none), as are files that do not import
// net/http.
func srvTimeout(f *ast.File) []diagnostic {
	aliases := map[string]bool{}
	for _, imp := range f.Imports {
		if name := importedAs(imp, "net/http"); name != "" && name != "_" && name != "." {
			aliases[name] = true
		}
	}
	if len(aliases) == 0 {
		return nil
	}
	var out []diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		sel, ok := lit.Type.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Server" {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || !aliases[pkg.Name] {
			return true
		}
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				return true // unkeyed literal: cannot tell, skip
			}
			if key, ok := kv.Key.(*ast.Ident); ok &&
				(key.Name == "ReadHeaderTimeout" || key.Name == "ReadTimeout") {
				return true
			}
		}
		out = append(out, diagnostic{
			pos: lit.Pos(),
			msg: "http.Server literal without ReadHeaderTimeout: slow-header clients can pin connections forever",
		})
		return true
	})
	return out
}
