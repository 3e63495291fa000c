// Package simdet protects the simulation's determinism guarantee: the
// parallel sweep runner is only allowed to be bit-identical across
// worker counts because the packages under it never consult wall
// clocks, process-global randomness, or scheduler ordering.
//
// In the packages that make up the simulator — sim (the kernel), cluster
// (the testbed model) and experiments (servers, users, measurement and
// the paper's experiment sets) — it forbids:
//
//   - time.Now (the sim clock is the only time source)
//   - importing math/rand or math/rand/v2 (sim.RNG is seeded and
//     deterministic; the global generator is process-shared state)
//   - `go` statements outside package sim (the kernel's Env.Go is the
//     only sanctioned way to create concurrency; package sim itself is
//     the kernel and may use them)
//   - ranging over a map while appending to a slice declared outside
//     the loop, unless the enclosing function also sorts (map order
//     would otherwise leak into ordered output)
package simdet

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer is the simdet analyzer.
var Analyzer = &framework.Analyzer{
	Name: "simdet",
	Doc:  "forbid nondeterminism sources (time.Now, global math/rand, unsorted map-range output, raw goroutines) in the simulation packages",
	Run:  run,
}

// gated lists the package names the analyzer applies to.
var gated = map[string]bool{"sim": true, "experiments": true, "cluster": true}

func run(pass *framework.Pass) error {
	if !gated[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			switch importPath(imp) {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(),
					"math/rand is a process-global nondeterminism source; use sim.RNG")
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func importPath(spec *ast.ImportSpec) string {
	s := spec.Path.Value
	return s[1 : len(s)-1]
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	sorts := callsSort(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			if pass.Pkg.Name() != "sim" {
				pass.Reportf(x.Pos(),
					"goroutine launched outside the sim kernel; use Env.Go so the scheduler stays deterministic")
			}
		case *ast.SelectorExpr:
			if fn, ok := pass.TypesInfo.Uses[x.Sel].(*types.Func); ok &&
				fn.FullName() == "time.Now" {
				pass.Reportf(x.Pos(),
					"time.Now is nondeterministic inside the simulation; use the sim clock")
			}
		case *ast.RangeStmt:
			checkMapRange(pass, fd, x, sorts)
		}
		return true
	})
}

// callsSort reports whether fd calls into sort or slices anywhere —
// the flow-insensitive signal that map-range output gets ordered
// before it escapes.
func callsSort(pass *framework.Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || found {
			return !found
		}
		if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sort", "slices":
				found = true
			}
		}
		return !found
	})
	return found
}

// checkMapRange flags a range over a map whose body appends to a slice
// declared outside the loop: map iteration order becomes element order.
func checkMapRange(pass *framework.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, sorts bool) {
	if sorts {
		return
	}
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || i >= len(assign.Lhs) {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
				continue
			}
			target, ok := assign.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Uses[target]
			if obj == nil {
				obj = pass.TypesInfo.Defs[target]
			}
			if obj == nil {
				continue
			}
			// Declared before the range statement = escapes the loop in
			// map order.
			if obj.Pos() < rs.Pos() {
				pass.Reportf(assign.Pos(),
					"append inside a map range feeds map iteration order into %s; sort before emitting", target.Name)
			}
		}
		return true
	})
}
