// Command bench measures host seconds per fixed simulated workload: five
// workloads, per-layer micro-drivers, one traced run. See README.md.
//
//	bash bench/run.sh                                  every workload, timed and traced
//	bash bench/run.sh -workload elephants -trace 0     end-to-end metrics of one workload
//	bash bench/run.sh -compare a.json b.json           judge two result sets against the bounds
//
// The harness reaches the simulator only through the packages' exported
// functions; nothing outside this directory knows it exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const buildDir = ".bench_build"

// runRecord is one pass over one workload as stored in a result file. A
// result file is a set of them: -out appends.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`

	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Commit     string `json:"commit"`

	Laps      int       `json:"laps"`
	Segments  int       `json:"segments"`
	LapRawS   []float64 `json:"lap_raw_s"` // wall time of every measured lap's segment loop
	LapCalS   []float64 `json:"lap_cal_s"` // the same laps in reference-machine seconds
	SetupRawS []float64 `json:"setup_raw_s"`
	Digest    string    `json:"model_digest"`
	Events    uint64    `json:"sim_events"`

	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Gate      []string          `json:"gate_failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func main() {
	var (
		workload   = flag.String("workload", "all", "workload name, or all")
		seed       = flag.Int64("seed", 1, "input seed: the same seed gives the same simulated inputs")
		seconds    = flag.Float64("seconds", 15, "how long each pass measures")
		laps       = flag.Int("laps", 0, "measure exactly this many laps per configuration instead of -seconds")
		trace      = flag.String("trace", "", "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; unset: both")
		out        = flag.String("out", "", "result set to append this run to (default: overwrite "+buildDir+"/last_run.json)")
		cpuprofile = flag.String("cpuprofile", "", "write the traced laps' CPU profile here")
		compare    = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.json b.json")
		}
		spec, err := readBenchmarkSpec("BENCHMARK.json")
		if err != nil {
			fatalf("%v (run from the repository root)", err)
		}
		a, err := readResults(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		b, err := readResults(flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		os.Exit(compareSets(os.Stdout, spec, a, b))
	}

	var defs []*workloadDef
	if *workload == "all" {
		defs = workloads()
	} else if w := workloadByName(*workload); w != nil {
		defs = []*workloadDef{w}
	} else {
		fatalf("unknown workload %q", *workload)
	}
	var passes []int
	switch *trace {
	case "":
		passes = []int{0, 1}
	case "0":
		passes = []int{0}
	case "1":
		passes = []int{1}
	default:
		fatalf("-trace takes 0 or 1, not %q", *trace)
	}
	path := *out
	if path == "" {
		path = filepath.Join(buildDir, "last_run.json")
		os.Remove(path)
	}

	ok := true
	for _, w := range defs {
		merged := runRecord{Workload: w.name, Seed: *seed, Correct: true, Metrics: map[string]metric{}}
		for _, pass := range passes {
			cfg := runConfig{seed: *seed, scale: 1, budget: time.Duration(*seconds * float64(time.Second)), laps: *laps}
			rec := runPass(w, pass, &cfg, *cpuprofile)
			if err := appendRecord(path, rec); err != nil {
				fatalf("writing %s: %v", path, err)
			}
			printRecord(rec)
			merged.Correct = merged.Correct && rec.Correct
			merged.Attempted += rec.Attempted
			merged.Failed += rec.Failed
			for name, m := range rec.Metrics {
				merged.Metrics[name] = m
			}
		}
		// The last line of a workload's output is its result object.
		line, _ := json.Marshal(map[string]any{
			"correct": merged.Correct, "attempted": merged.Attempted, "failed": merged.Failed, "metrics": merged.Metrics,
		})
		fmt.Println(string(line))
		ok = ok && merged.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runPass runs the timed (0) or traced (1) pass and wraps it with the
// environment a reader needs to interpret the numbers.
func runPass(w *workloadDef, pass int, cfg *runConfig, cpuprofile string) runRecord {
	var o *runOutcome
	if pass == 0 {
		o = timedRun(w, *cfg)
	} else {
		o = tracedRun(w, cfg)
		tracePath := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.trace.json", w.name, cfg.seed))
		if err := cfg.tracer.writeChromeTrace(tracePath); err != nil {
			o.gate = append(o.gate, fmt.Sprintf("writing %s: %v", tracePath, err))
		} else {
			fmt.Printf("# spans: %s\n", tracePath)
		}
		if cpuprofile != "" {
			if err := os.WriteFile(cpuprofile, cfg.profile, 0o644); err != nil {
				o.gate = append(o.gate, fmt.Sprintf("writing %s: %v", cpuprofile, err))
			}
		}
	}
	return runRecord{
		Workload: w.name, Seed: cfg.seed, Trace: pass,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Commit: commit(),
		Laps: o.laps, Segments: o.segments, LapRawS: o.lapRawS, LapCalS: o.lapCalS, SetupRawS: o.setupRawS,
		Digest: fmt.Sprintf("%#016x", o.digest), Events: o.events,
		Correct: len(o.gate) == 0, Attempted: o.attempted, Failed: o.failed, Gate: o.gate,
		Metrics: o.metrics,
	}
}

// commit reports the revision the binary was built from, when the build
// could see one (a bare checkout has none).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printRecord(r runRecord) {
	fmt.Printf("# %s seed=%d trace=%d laps=%d segments=%d events=%d digest=%s %s gomaxprocs=%d commit=%s\n",
		r.Workload, r.Seed, r.Trace, r.Laps, r.Segments, r.Events, r.Digest, r.GoVersion, r.GOMAXPROCS, r.Commit)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, g := range r.Gate {
		fmt.Fprintf(os.Stderr, "bench: GATE FAILED: %s\n", g)
	}
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func appendRecord(path string, rec runRecord) error {
	rf, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
