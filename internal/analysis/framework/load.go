package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, type-checked target package.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	DepOnly    bool
	// ImportMap rewrites import paths as the build would (stdlib
	// vendoring: "golang.org/x/net/..." inside net is really
	// "vendor/golang.org/x/net/...").
	ImportMap map[string]string
	Error     *struct{ Err string }
}

// Load lists the packages matching patterns (relative to dir) with the
// go tool and type-checks them — and their whole dependency graph,
// stdlib included — from source. It needs no network and no module
// cache beyond what the go toolchain ships. Only the matched packages
// come back; dependencies are type-checked with function bodies skipped
// and discarded.
func Load(dir string, patterns ...string) ([]*Package, error) {
	pkgs, err := listPackages(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	typed := map[string]*types.Package{"unsafe": types.Unsafe}
	var out []*Package
	for _, lp := range pkgs {
		if lp.Name == "" || lp.ImportPath == "unsafe" {
			// "unsafe" must stay the magic types.Unsafe package; checking
			// its source stub would shadow the builtin special-casing.
			continue
		}
		p, err := typecheck(fset, lp, typed)
		if err != nil {
			return nil, err
		}
		if !lp.DepOnly {
			out = append(out, p)
		}
	}
	return out, nil
}

// listPackages runs one `go list -e -json -deps` and returns the
// packages in dependency order (deps before dependents — the order go
// list emits them in).
func listPackages(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(stdout))
	var pkgs []*listPkg
	for {
		lp := new(listPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.Error != nil && !lp.DepOnly {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// typecheck parses and type-checks one listed package, reusing (and
// extending) the typed cache. Dependencies get IgnoreFuncBodies; the
// target packages get full types.Info for the analyzers.
func typecheck(fset *token.FileSet, lp *listPkg, typed map[string]*types.Package) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer:         mapImporter{m: lp.ImportMap, typed: typed},
		FakeImportC:      true,
		IgnoreFuncBodies: lp.DepOnly,
		Error:            func(error) {}, // collect everything, fail on first below
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	typed[lp.ImportPath] = tpkg
	return &Package{
		Path:  lp.ImportPath,
		Name:  lp.Name,
		Dir:   lp.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// mapImporter resolves imports against the already-typed cache, applying
// the importing package's ImportMap first (stdlib vendoring).
type mapImporter struct {
	m     map[string]string
	typed map[string]*types.Package
}

func (mi mapImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := mi.m[path]; ok {
		path = mapped
	}
	if p, ok := mi.typed[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("package %s not yet type-checked (go list dependency order violated?)", path)
}

// LoadTestdata type-checks the package rooted at dir (an analysistest
// testdata/src/<pkg> directory, outside any go list universe). Imports
// are resolved first against sibling directories under srcRoot (local
// stub packages, type-checked recursively), then against the module and
// standard library via one go list call per load.
func LoadTestdata(srcRoot string, pkgPaths ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	typed := map[string]*types.Package{"unsafe": types.Unsafe}

	// Gather the transitive external (non-srcRoot) imports so one go
	// list run can type-check them all, then check locals bottom-up.
	local := map[string]*localPkg{}
	var externals []string
	seenExt := map[string]bool{}
	var scan func(path string) error
	scan = func(path string) error {
		if _, ok := local[path]; ok {
			return nil
		}
		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		files, imports, err := parseDir(fset, dir)
		if err != nil {
			return err
		}
		l := &localPkg{path: path, dir: dir, files: files}
		local[path] = l
		for _, imp := range imports {
			if isLocal(srcRoot, imp) {
				l.localDeps = append(l.localDeps, imp)
				if err := scan(imp); err != nil {
					return err
				}
			} else if !seenExt[imp] {
				seenExt[imp] = true
				externals = append(externals, imp)
			}
		}
		return nil
	}
	for _, p := range pkgPaths {
		if err := scan(p); err != nil {
			return nil, err
		}
	}

	if len(externals) > 0 {
		sort.Strings(externals)
		// srcRoot lives inside the module, so go list resolves module
		// and stdlib import paths from there.
		ext, err := listPackages(srcRoot, externals)
		if err != nil {
			return nil, err
		}
		for _, lp := range ext {
			if lp.Name == "" || lp.ImportPath == "unsafe" {
				continue
			}
			if _, err := typecheck(fset, lp, typed); err != nil {
				return nil, err
			}
		}
	}

	// Type-check locals in dependency order.
	var out []*Package
	checked := map[string]*Package{}
	want := map[string]bool{}
	for _, p := range pkgPaths {
		want[p] = true
	}
	var check func(path string) (*Package, error)
	check = func(path string) (*Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		l := local[path]
		for _, dep := range l.localDeps {
			if _, err := check(dep); err != nil {
				return nil, err
			}
		}
		lp := &listPkg{ImportPath: path, Name: l.files[0].Name.Name, Dir: l.dir, DepOnly: !want[path]}
		p, err := typecheckFiles(fset, lp, l.files, typed)
		if err != nil {
			return nil, err
		}
		checked[path] = p
		return p, nil
	}
	for _, p := range pkgPaths {
		pkg, err := check(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

type localPkg struct {
	path      string
	dir       string
	files     []*ast.File
	localDeps []string
}

// isLocal reports whether import path imp resolves to a directory under
// srcRoot (the analysistest local-stub convention).
func isLocal(srcRoot, imp string) bool {
	st, err := os.Stat(filepath.Join(srcRoot, filepath.FromSlash(imp)))
	return err == nil && st.IsDir()
}

// parseDir parses every non-test .go file of dir and returns the files
// plus their union of imports.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	seen := map[string]bool{}
	var imports []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".go" {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			path := importPath(imp)
			if !seen[path] {
				seen[path] = true
				imports = append(imports, path)
			}
		}
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, imports, nil
}

func importPath(spec *ast.ImportSpec) string {
	s := spec.Path.Value
	return s[1 : len(s)-1]
}

// typecheckFiles is typecheck for already-parsed files (testdata
// locals, which have no go list entry).
func typecheckFiles(fset *token.FileSet, lp *listPkg, files []*ast.File, typed map[string]*types.Package) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer:    mapImporter{typed: typed},
		FakeImportC: true,
		Error:       func(error) {},
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	typed[lp.ImportPath] = tpkg
	return &Package{
		Path:  lp.ImportPath,
		Name:  lp.Name,
		Dir:   lp.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
