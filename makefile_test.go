package mlcc

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCheckFuzzRunsEveryTarget holds `make check-fuzz` to every native fuzz
// target: each func Fuzz… in a _test.go file must have a recipe line that
// fuzzes it by name in its own package directory, so a new target cannot be
// left out of `make check`.
func TestCheckFuzzRunsEveryTarget(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	run := map[string]bool{} // "dir FuzzName"
	line := regexp.MustCompile(`-fuzz '\^?(Fuzz\w+)\$?'.* (\S+)$`)
	inRecipe := false
	for _, l := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasPrefix(l, "check-fuzz:"):
			inRecipe = true
		case inRecipe && strings.HasPrefix(l, "\t"):
			if m := line.FindStringSubmatch(l); m != nil {
				run[filepath.Clean(m[2])+" "+m[1]] = true
			}
		default:
			inRecipe = false
		}
	}
	if len(run) == 0 {
		t.Fatal("no fuzz target in the Makefile's check-fuzz recipe")
	}

	fset := token.NewFileSet()
	targets := 0
	for _, path := range goFiles(t, ".") {
		if !strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, d := range parseGo(t, fset, path).Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") {
				continue
			}
			targets++
			if key := filepath.Dir(path) + " " + fn.Name.Name; !run[key] {
				t.Errorf("%s: %s is not run by make check-fuzz", path, fn.Name.Name)
			}
		}
	}
	if targets != len(run) {
		t.Errorf("check-fuzz runs %d targets, the tests declare %d", len(run), targets)
	}
}
