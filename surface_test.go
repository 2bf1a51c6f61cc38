package mlcc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Ceilings of the root package's exported surface: types and functions, and
// constants. Lower them when a name goes.
const (
	maxExportedTypesFuncs = 23
	maxExportedConsts     = 4
)

// TestPublicSurfaceHasCallers holds the root package to what its callers
// use: every exported type, function, constant, variable and method declared
// in its non-test files must be named by non-test code under cmd/ or by
// example_test.go. A type also counts when a used function, method or type
// mentions it (NewNetwork hands its caller a *Network). Methods are matched
// by selector name, since the parse carries no types.
func TestPublicSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	surface := exportedDecls(t, fset, ".")
	callers := newUses()
	callers.scan(parseGo(t, fset, "example_test.go"))
	for _, path := range goFiles(t, "cmd") {
		if !strings.HasSuffix(path, "_test.go") {
			callers.scan(parseGo(t, fset, path))
		}
	}

	for _, u := range unusedDecls(surface, callers.named["mlcc"], callers.selected, nil) {
		t.Errorf("%s: no caller under cmd/ or in example_test.go; delete or unexport it", u)
	}
	typesFuncs, consts := 0, 0
	for _, d := range surface {
		switch d.kind {
		case "type", "func":
			typesFuncs++
		case "const":
			consts++
		}
	}
	if typesFuncs > maxExportedTypesFuncs || consts > maxExportedConsts {
		t.Errorf("root exports %d types and functions and %d constants, ceilings %d and %d",
			typesFuncs, consts, maxExportedTypesFuncs, maxExportedConsts)
	}
}

// TestInternalSurfaceHasCallers holds every package under internal/ to what
// other packages use: each exported top-level name and method must be named
// by another package (code under cmd/, the root, internal/ or bench/, tests
// included, and a directory's own external _test package), by the same rules
// as the root's surface. A method also counts when an interface declared
// anywhere in the module has one of its name (it may be how another package
// calls it), and String, Error and the JSON and text marshalers always do. A
// name only its package uses is unexported; one nothing uses is deleted.
func TestInternalSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	byPkg := map[string]*uses{} // by directory, plus "_test" for external tests
	all := newUses()
	for _, tree := range []string{".", "bench"} {
		for _, path := range goFiles(t, tree) {
			f := parseGo(t, fset, path)
			pkg := filepath.Dir(path)
			if strings.HasSuffix(f.Name.Name, "_test") {
				pkg += "_test"
			}
			if byPkg[pkg] == nil {
				byPkg[pkg] = newUses()
			}
			byPkg[pkg].scan(f)
			all.scan(f)
		}
	}
	kept := all.ifaceMethods
	for _, m := range []string{"String", "Error", "MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText"} {
		kept[m] = true // fmt, errors and the encoders call these, not our code
	}
	for dir := range byPkg {
		if !strings.HasPrefix(dir, "internal"+string(filepath.Separator)) || strings.HasSuffix(dir, "_test") {
			continue
		}
		surface := exportedDecls(t, fset, dir)
		if len(surface) == 0 {
			continue // tests or data only
		}
		importPath := "mlcc/" + filepath.ToSlash(dir)
		callers := newUses()
		for other, u := range byPkg {
			if other != dir {
				callers.add(u)
			}
		}
		for _, u := range unusedDecls(surface, callers.named[importPath], callers.selected, kept) {
			t.Errorf("%s: %s has no caller outside the package; unexport or delete it", importPath, u)
		}
	}
}

// decl is one exported declaration: its kind ("type", "func", "const",
// "var" or "method") and, for functions, methods and types, its syntax.
type decl struct {
	kind string
	node ast.Node // *ast.FuncDecl or *ast.TypeSpec; nil for consts and vars
}

// exportedDecls returns the exported top-level names and methods
// ("Recv.Name") declared in dir's non-test files.
func exportedDecls(t *testing.T, fset *token.FileSet, dir string) map[string]decl {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	surface := map[string]decl{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, d := range parseGo(t, fset, path).Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported():
				case d.Recv == nil:
					surface[d.Name.Name] = decl{"func", d}
				default:
					surface[recvName(d)+"."+d.Name.Name] = decl{"method", d}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							surface[s.Name.Name] = decl{"type", s}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								surface[n.Name] = decl{kind: d.Tok.String()}
							}
						}
					}
				}
			}
		}
	}
	return surface
}

// uses is what a set of files names: named[importPath][X] for every
// qualified identifier pkg.X, selected[M] for every selector .M, and
// ifaceMethods[M] for every method M an interface type declares.
type uses struct {
	named        map[string]map[string]bool
	selected     map[string]bool
	ifaceMethods map[string]bool
}

func newUses() *uses {
	return &uses{named: map[string]map[string]bool{}, selected: map[string]bool{}, ifaceMethods: map[string]bool{}}
}

// scan adds f's qualified identifiers, selectors and interface methods.
func (u *uses) scan(f *ast.File) {
	imports := map[string]string{} // local name -> import path
	for _, spec := range f.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = path
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				u.name(imports[x.Name], n.Sel.Name)
			}
			u.selected[n.Sel.Name] = true
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, id := range m.Names {
					u.ifaceMethods[id.Name] = true
				}
			}
		}
		return true
	})
}

func (u *uses) name(path, x string) {
	if u.named[path] == nil {
		u.named[path] = map[string]bool{}
	}
	u.named[path][x] = true
}

// add merges o into u.
func (u *uses) add(o *uses) {
	for path, xs := range o.named {
		for x := range xs {
			u.name(path, x)
		}
	}
	for m := range o.selected {
		u.selected[m] = true
	}
	for m := range o.ifaceMethods {
		u.ifaceMethods[m] = true
	}
}

// unusedDecls lists the declarations of surface that named (the callers'
// qualified identifiers into the package) and selected (their selectors) do
// not reach. A method is reached by its selector name, or by a name in
// kept; a type also counts when a reached function, method or type mentions
// it, to a fixpoint.
func unusedDecls(surface map[string]decl, named, selected, kept map[string]bool) []string {
	reached := map[string]bool{}
	for name := range named {
		reached[name] = true
	}
	used := func(name string, d decl) bool {
		if d.kind == "method" {
			m := d.node.(*ast.FuncDecl).Name.Name
			return selected[m] || kept[m]
		}
		return reached[name]
	}
	for grew := true; grew; {
		grew = false
		for name, d := range surface {
			if d.node == nil || !used(name, d) {
				continue
			}
			var body ast.Node = d.node
			if fn, ok := d.node.(*ast.FuncDecl); ok {
				body = fn.Type
			}
			ast.Inspect(body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && surface[id.Name].kind == "type" && !reached[id.Name] {
					reached[id.Name], grew = true, true
				}
				return true
			})
		}
	}
	var unused []string
	for name, d := range surface {
		if !used(name, d) {
			unused = append(unused, d.kind+" "+name)
		}
	}
	sort.Strings(unused)
	return unused
}

// goFiles lists the .go files under root, skipping testdata and the bench
// harness's build directory, and bench/ itself when root is the repository.
func goFiles(t *testing.T, root string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch {
			case path == root:
			case d.Name() == "testdata", strings.HasPrefix(d.Name(), "."), root == "." && path == "bench":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func parseGo(t *testing.T, fset *token.FileSet, path string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// recvName is the receiver's type name of method d.
func recvName(d *ast.FuncDecl) string {
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	return typ.(*ast.Ident).Name
}
