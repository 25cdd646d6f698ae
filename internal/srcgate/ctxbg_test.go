package srcgate

import (
	"fmt"
	"go/ast"
)

// ctxBG flags context.Background() and context.TODO() calls inside
// functions that already receive a context.Context parameter. Those
// call sites sever the caller's cancellation and deadline: a request
// handler or dashboard run that spawns work under a fresh root context
// keeps running after the client is gone.
//
// The check is syntactic. A function — declared or literal — "receives
// a context" when any parameter's type is written `context.Context`
// under the file's import of the standard "context" package (aliased
// imports are followed; dot imports are not). Compat shims that take
// no ctx and exist to mint one — Run vs RunContext — are untouched.
func ctxBG(f *ast.File) []diagnostic {
	ctxPkg := importName(f, "context")
	if ctxPkg == "" || ctxPkg == "_" || ctxPkg == "." {
		return nil
	}
	// ctxBody returns the body of a function that receives a context,
	// else nil.
	ctxBody := func(n ast.Node) *ast.BlockStmt {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if hasCtxParam(fn.Type, ctxPkg) {
				return fn.Body
			}
		case *ast.FuncLit:
			if hasCtxParam(fn.Type, ctxPkg) {
				return fn.Body
			}
		}
		return nil
	}
	var out []diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		body := ctxBody(n)
		if body == nil {
			return true
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if ctxBody(n) != nil {
				return false // a nested function with its own ctx reports its own calls
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name := freshCtxCall(call, ctxPkg); name != "" {
				out = append(out, diagnostic{
					pos: call.Pos(),
					msg: fmt.Sprintf("%s.%s() inside a function that receives a context.Context; thread the caller's ctx instead",
						ctxPkg, name),
				})
			}
			return true
		})
		return true
	})
	return out
}

// hasCtxParam reports whether the signature declares a parameter of
// type <ctxPkg>.Context.
func hasCtxParam(ft *ast.FuncType, ctxPkg string) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isCtxType(field.Type, ctxPkg) {
			return true
		}
	}
	return false
}

func isCtxType(e ast.Expr, ctxPkg string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == ctxPkg
}

// freshCtxCall returns "Background" or "TODO" when the call mints a
// fresh root context from the context package, else "".
func freshCtxCall(call *ast.CallExpr, ctxPkg string) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != ctxPkg {
		return ""
	}
	if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
		return sel.Sel.Name
	}
	return ""
}
