package mlcc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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
// example_test.go. A type also counts when a used function or method takes
// or returns it (NewNetwork hands its caller a *Network). Methods are
// matched by selector name, since the parse carries no types.
func TestPublicSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// The surface: top-level names and methods, each with its declaration.
	type decl struct {
		kind string // "type", "func", "const", "var" or "method"
		fn   *ast.FuncDecl
	}
	surface := map[string]decl{}
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range roots {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, d := range parse(path).Decls {
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
							surface[s.Name.Name] = decl{kind: "type"}
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

	// The callers: mlcc.X names X, and any .M selects a method named M.
	named, selected := map[string]bool{}, map[string]bool{}
	callers := []string{"example_test.go"}
	err = filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			callers = append(callers, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range callers {
		ast.Inspect(parse(path), func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "mlcc" {
					named[sel.Sel.Name] = true
				}
				selected[sel.Sel.Name] = true
			}
			return true
		})
	}
	used := func(name string, d decl) bool {
		if d.kind == "method" {
			return selected[d.fn.Name.Name]
		}
		return named[name]
	}
	// Types reached through a used signature count as named, to a fixpoint.
	for grew := true; grew; {
		grew = false
		for name, d := range surface {
			if d.fn == nil || !used(name, d) {
				continue
			}
			ast.Inspect(d.fn.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && surface[id.Name].kind == "type" && !named[id.Name] {
					named[id.Name], grew = true, true
				}
				return true
			})
		}
	}

	var unused []string
	typesFuncs, consts := 0, 0
	for name, d := range surface {
		switch d.kind {
		case "type", "func":
			typesFuncs++
		case "const":
			consts++
		}
		if !used(name, d) {
			unused = append(unused, d.kind+" "+name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: no caller under cmd/ or in example_test.go; delete or unexport it", u)
	}
	if typesFuncs > maxExportedTypesFuncs || consts > maxExportedConsts {
		t.Errorf("root exports %d types and functions and %d constants, ceilings %d and %d",
			typesFuncs, consts, maxExportedTypesFuncs, maxExportedConsts)
	}
}

// recvName is the receiver's type name of method d.
func recvName(d *ast.FuncDecl) string {
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	return typ.(*ast.Ident).Name
}
