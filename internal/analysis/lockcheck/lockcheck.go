// Package lockcheck enforces the repo's `// guarded by <mu>` field
// annotations: a field so annotated may only be accessed inside a
// function that locks that mutex (Lock or RLock — the check is
// flow-insensitive and does not distinguish read from write access),
// or that is exempted by annotation.
//
// Grammar (all matches are case-insensitive, on doc or line comments):
//
//	field:    // guarded by <mu>      <mu> is a sibling field of the struct
//	function: // Callers hold <mu>.   every access in the body is allowed
//	function: // locks <mu>           calling this helper counts as
//	                                  locking <mu> in the caller
//	          (the "locks" form must start a line of the doc comment)
//
// Accesses through a fresh local — a variable bound to a composite
// literal in the same function, the constructor pattern — are exempt:
// nothing else can see the value yet. The analysis is per-package and
// per-function; cross-function flows other than the annotations above
// are out of scope.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/analysis/framework"
)

// Analyzer is the lockcheck analyzer.
var Analyzer = &framework.Analyzer{
	Name: "lockcheck",
	Doc:  "fields annotated `// guarded by <mu>` must only be accessed under that mutex (or a `// Callers hold <mu>` / `// locks <mu>` exemption)",
	Run:  run,
}

var (
	guardedRe     = regexp.MustCompile(`(?i)\bguarded by\s+(?:the\s+)?([A-Za-z_]\w*)`)
	callerHoldsRe = regexp.MustCompile(`(?i)\bcallers?\s+(?:must\s+)?holds?\s+(?:the\s+)?(?:[A-Za-z_]\w*\.)*([A-Za-z_]\w*)`)
	locksRe       = regexp.MustCompile(`(?im)^\s*locks\s+([A-Za-z_]\w*)\b`)
)

// guard records one guarded field: the mutex's name and its object (a
// sibling field of the same struct).
type guard struct {
	muName string
	mu     *types.Var
}

func run(pass *framework.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	lockers := collectLockers(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, guards, lockers)
		}
	}
	return nil
}

// collectGuards finds every `// guarded by <mu>` field annotation and
// resolves the mutex to a sibling field.
func collectGuards(pass *framework.Pass) map[*types.Var]guard {
	guards := make(map[*types.Var]guard)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				muName := guardAnnotation(field)
				if muName == "" {
					continue
				}
				mu := siblingField(pass, st, muName)
				if mu == nil {
					pass.Reportf(field.Pos(),
						"guarded by %s: no field named %s in this struct", muName, muName)
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guards[v] = guard{muName: muName, mu: mu}
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardAnnotation extracts the mutex name from a field's doc or line
// comment, or "" when the field is not annotated.
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// siblingField resolves name to a field object of the same struct.
func siblingField(pass *framework.Pass, st *ast.StructType, name string) *types.Var {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name == name {
				if v, ok := pass.TypesInfo.Defs[n].(*types.Var); ok {
					return v
				}
			}
		}
	}
	return nil
}

// collectLockers maps functions annotated `// locks <mu>` to the mutex
// field of their receiver struct.
func collectLockers(pass *framework.Pass) map[*types.Func]*types.Var {
	lockers := make(map[*types.Func]*types.Var)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			m := locksRe.FindStringSubmatch(fd.Doc.Text())
			if m == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if mu := receiverField(fn, m[1]); mu != nil {
				lockers[fn] = mu
			}
		}
	}
	return lockers
}

// receiverField resolves name to a field of fn's receiver struct.
func receiverField(fn *types.Func, name string) *types.Var {
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}

// checkFunc flags guarded-field accesses in fd that are not covered by
// a lock acquisition, an exemption annotation, or a fresh local.
func checkFunc(pass *framework.Pass, fd *ast.FuncDecl, guards map[*types.Var]guard, lockers map[*types.Func]*types.Var) {
	holds := heldNames(fd)
	held := heldMutexes(pass, fd, lockers)
	fresh := freshLocals(pass, fd)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := pass.TypesInfo.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		fv, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		g, ok := guards[fv.Origin()] // a generic type's field is instantiated per use
		if !ok {
			return true
		}
		if holds[g.muName] || held[g.mu] {
			return true
		}
		if root := rootIdent(sel.X); root != nil {
			if v, ok := pass.TypesInfo.Uses[root].(*types.Var); ok && fresh[v] {
				return true
			}
		}
		pass.Reportf(sel.Sel.Pos(),
			"%s is guarded by %s, but %s neither locks it nor is annotated // Callers hold %s",
			fv.Name(), g.muName, fd.Name.Name, g.muName)
		return true
	})
}

// rootIdent walks to the innermost identifier of a selector chain
// (g in g.expiry[i].x), or nil when the chain roots in a call or other
// non-identifier expression.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// heldNames parses the function's `// Callers hold <mu>` exemptions.
func heldNames(fd *ast.FuncDecl) map[string]bool {
	holds := make(map[string]bool)
	if fd.Doc == nil {
		return holds
	}
	for _, m := range callerHoldsRe.FindAllStringSubmatch(fd.Doc.Text(), -1) {
		holds[m[1]] = true
	}
	return holds
}

// heldMutexes collects the mutex field objects fd acquires anywhere in
// its body: direct x.mu.Lock()/RLock() calls plus calls to `// locks`
// helpers. Flow-insensitive: an acquisition anywhere covers the whole
// function (including its func literals).
func heldMutexes(pass *framework.Pass, fd *ast.FuncDecl, lockers map[*types.Func]*types.Var) map[*types.Var]bool {
	held := make(map[*types.Var]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if mu := fieldVarOf(pass, sel.X); mu != nil {
				held[mu] = true
			}
		default:
			if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
				if mu, ok := lockers[fn.Origin()]; ok {
					held[mu] = true
				}
			}
		}
		return true
	})
	return held
}

// fieldVarOf resolves the expression a Lock call's receiver to a field
// (or plain) variable object, a generic type's field to its declaration.
func fieldVarOf(pass *framework.Pass, e ast.Expr) *types.Var {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if s := pass.TypesInfo.Selections[x]; s != nil {
			if v, ok := s.Obj().(*types.Var); ok {
				return v.Origin()
			}
		}
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[x].(*types.Var); ok {
			return v
		}
	case *ast.ParenExpr:
		return fieldVarOf(pass, x.X)
	}
	return nil
}

// freshLocals collects variables bound to composite literals inside fd:
// values under construction that no other goroutine can reach.
func freshLocals(pass *framework.Pass, fd *ast.FuncDecl) map[*types.Var]bool {
	fresh := make(map[*types.Var]bool)
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || !isFreshExpr(rhs) {
			return
		}
		if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
			fresh[v] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					bind(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i := range st.Names {
					bind(st.Names[i], st.Values[i])
				}
			}
		}
		return true
	})
	return fresh
}

// isFreshExpr reports whether e constructs a brand-new value.
func isFreshExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, lit := x.X.(*ast.CompositeLit)
		return x.Op == token.AND && lit
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}
