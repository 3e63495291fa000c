// Package wirecode keeps wire errors structured. A handler registered
// with transport.Handle that returns a bare fmt.Errorf or errors.New
// loses its machine-readable code on the wire (the client sees CodeExec
// for everything); handlers must build failures with transport.Errf so
// the code survives the round trip. A binary handler (Server.HandleV3)
// returns a *transport.Error by type, so it needs no check.
//
// The check covers error expressions in return statements of handler
// function literals and of same-package named functions passed as
// handlers. Errors built elsewhere and returned through a variable are
// out of scope (flow-insensitive).
//
// Inside the transport package itself the check goes further: any
// json.Marshal/json.Unmarshal call is flagged, because the serving
// path rides the binary codec and reflective JSON creeping into a
// frame loop costs allocations on every call. The two seams where
// JSON-bodied ops meet the wire (the form transport.Handle derives,
// MuxClient.CallJSON) keep their JSON behind an explicit
// //gridmon:nolint wirecode suppression, so an unsuppressed site is a
// hot-path regression.
package wirecode

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer is the wirecode analyzer.
var Analyzer = &framework.Analyzer{
	Name: "wirecode",
	Doc: "transport handlers must return structured transport.Errf errors, not bare fmt.Errorf/errors.New; " +
		"inside package transport, json.Marshal/Unmarshal is flagged off the JSON-body seams (nolint-able)",
	Run: run,
}

func run(pass *framework.Pass) error {
	if pass.Pkg.Name() == "transport" {
		checkTransportJSON(pass)
	}
	checked := make(map[*ast.FuncDecl]bool)
	decls := namedFuncs(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isHandlerRegistration(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				switch h := arg.(type) {
				case *ast.FuncLit:
					checkHandlerBody(pass, h.Body)
				case *ast.Ident:
					if fd := decls[pass.TypesInfo.Uses[h]]; fd != nil && !checked[fd] {
						checked[fd] = true
						checkHandlerBody(pass, fd.Body)
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkTransportJSON flags encoding/json calls in the transport
// package's own code. The binary codec exists precisely so the
// serving hot path never pays reflective marshalling; JSON is legal
// only at the JSON-body seams, and those carry an explicit
// //gridmon:nolint wirecode comment naming themselves as such.
func checkTransportJSON(pass *framework.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			switch fn.FullName() {
			case "encoding/json.Marshal", "encoding/json.Unmarshal":
				pass.Reportf(call.Pos(),
					"%s in package transport: hot paths ride the binary codec; if this is a JSON-body seam, say so with //gridmon:nolint wirecode", fn.FullName())
			}
			return true
		})
	}
}

// namedFuncs indexes the package's function declarations by object, so
// a handler passed by name can be checked too.
func namedFuncs(pass *framework.Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[pass.TypesInfo.Defs[fd.Name]] = fd
			}
		}
	}
	return decls
}

// isHandlerRegistration recognizes transport.Handle calls.
func isHandlerRegistration(pass *framework.Pass, call *ast.CallExpr) bool {
	fun := call.Fun
	if ix, ok := fun.(*ast.IndexExpr); ok { // explicit instantiation
		fun = ix.X
	} else if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = ix.X
	}
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.SelectorExpr:
		id = x.Sel
	case *ast.Ident:
		id = x
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "transport" {
		return false
	}
	return fn.Name() == "Handle"
}

// checkHandlerBody flags bare-error constructors in the handler's own
// return statements (not those of nested function literals).
func checkHandlerBody(pass *framework.Pass, body *ast.BlockStmt) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // its returns are not handler returns
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				checkReturnExpr(pass, res)
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// checkReturnExpr flags fmt.Errorf / errors.New calls anywhere in one
// returned expression.
func checkReturnExpr(pass *framework.Pass, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		switch fn.FullName() {
		case "fmt.Errorf", "errors.New":
			pass.Reportf(call.Pos(),
				"%s crosses the wire without a code (clients see code=exec_error); use transport.Errf", fn.FullName())
		}
		return true
	})
}
