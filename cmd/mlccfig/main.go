// Command mlccfig regenerates the data behind any figure of the paper's
// evaluation. Run with -list to see experiment ids.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mlcc/internal/exp"
	"mlcc/internal/obs"
	"mlcc/internal/stats"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiment ids and exit")
		full    = flag.Bool("full", false, "run at the paper's full scale (slow)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		workers = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		shards  = flag.Int("shards", 2, "per-DC simulation engines (1 = single engine; figures are bit-identical either way)")
		fig     = flag.String("fig", "", "experiment id ("+strings.Join(exp.IDs(), ", ")+") or 'all'")
		csvDir  = flag.String("csv", "", "directory to write per-figure time-series CSVs")
		manDir  = flag.String("manifests", "", "directory to write one run manifest per (figure, cell, algorithm): each replays with mlccsim -spec")
		serve   = flag.String("serve", "", "serve observability HTTP (/healthz, /manifest, /debug/pprof) on this address while figures run; each figure's manifests appear as it completes")
	)
	flag.Parse()
	if *list {
		for _, id := range exp.IDs() {
			e, _ := exp.Lookup(id)
			fmt.Printf("%-8s %s\n", id, e.Title)
		}
		return
	}
	if *fig == "" {
		fmt.Fprintln(os.Stderr, "usage: mlccfig -fig <id>|all [-full] [-seed N]")
		os.Exit(2)
	}
	ids := []string{*fig}
	if *fig == "all" {
		ids = exp.IDs()
	}
	cfg := exp.Config{Scale: exp.Quick, Seed: *seed, Workers: *workers, Shards: *shards}
	if *full {
		cfg.Scale = exp.Full
	}
	var srv *obs.Server
	if *serve != "" {
		srv = obs.NewServer()
		addr, err := srv.Serve(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlccfig:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "mlccfig: observability server on http://%s\n", addr)
	}
	failed := false
	for _, id := range ids {
		e, ok := exp.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", id)
			os.Exit(2)
		}
		t0 := time.Now()
		rep, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("%s\n(elapsed %v)\n\n", rep, time.Since(t0).Round(time.Millisecond))
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "mlccfig: %s: failure: %s\n", id, f)
			failed = true
		}
		if srv != nil {
			for _, m := range rep.Manifests {
				srv.AddManifest(m)
			}
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, rep); err != nil {
				fmt.Fprintf(os.Stderr, "%s: csv: %v\n", id, err)
				os.Exit(1)
			}
		}
		if *manDir != "" {
			if err := writeManifests(*manDir, rep); err != nil {
				fmt.Fprintf(os.Stderr, "%s: manifests: %v\n", id, err)
				os.Exit(1)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeManifests writes each of the report's run manifests to its own file,
// <dir>/<figure>.<cell>.<algorithm>.json: every file is a run spec that
// mlccsim -spec replays.
func writeManifests(dir string, rep *exp.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, m := range rep.Manifests {
		raw, err := json.MarshalIndent(m, "", "  ")
		if err == nil {
			name := fileSafe.Replace(m.Workload + "." + m.Algorithm + ".json")
			err = os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fileSafe maps a manifest's "<figure>:<cell>" workload and algorithm to a
// file name: cell names carry loads ("30%") and θs ("theta=18ms").
var fileSafe = strings.NewReplacer(":", ".", "%", "pct", "=", "_")

// writeCSV exports a report's time series as <dir>/<figid>.csv in long form.
func writeCSV(dir string, rep *exp.Report) error {
	if len(rep.Series) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	named := make([]*stats.Series, len(rep.Series))
	for i, ser := range rep.Series {
		c := *ser // a renamed view: the samples are shared, not copied
		// Series names may repeat across sub-scenarios; disambiguate.
		c.Name = fmt.Sprintf("%02d:%s", i, ser.Name)
		named[i] = &c
	}
	f, err := os.Create(filepath.Join(dir, rep.ID+".csv"))
	if err != nil {
		return err
	}
	if err := stats.WriteSeriesCSV(f, named); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
