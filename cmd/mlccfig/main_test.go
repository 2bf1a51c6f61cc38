package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mlcc"
	"mlcc/internal/exp"
)

// TestWriteManifestsAreSpecs pins that -manifests writes one file per run,
// named after its figure, cell and algorithm, and that each file reads back
// through mlcc.ReadSpec as the config its run recorded.
func TestWriteManifestsAreSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a figure")
	}
	e, _ := exp.Lookup("fig9")
	rep, err := e.Run(exp.Config{Scale: exp.Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeManifests(dir, rep); err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Manifests {
		path := filepath.Join(dir, strings.Replace(m.Workload, ":", ".", 1)+"."+m.Algorithm+".json")
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mlcc.ReadSpec(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !reflect.DeepEqual(got, m.Config) {
			t.Errorf("%s reads back as\n%+v\nwant\n%+v", path, got, m.Config)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != len(rep.Manifests) {
		t.Errorf("wrote %d files for %d runs", len(files), len(rep.Manifests))
	}
}
