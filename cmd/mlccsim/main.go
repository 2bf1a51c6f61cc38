// Command mlccsim runs one workload simulation on the two-datacenter
// topology and prints an FCT summary.
//
// Examples:
//
//	mlccsim -alg mlcc -workload websearch -intra 0.5 -cross 0.2
//	mlccsim -alg dcqcn -workload hadoop -intra 0.3 -cross 0.1 -duration 10ms
//	mlccsim -alg hpcc -fb-loss 0.3 -fb-corrupt 0.2 -audit
//	mlccsim -alg mlcc -scenario plan.json
//	mlccsim -alg mlcc -scenario-kind collective
//	mlccsim -spec out/run1/manifest.json -shards 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"mlcc"
)

// timeFlag reads a Go duration ("5ms", "100us") into an mlcc.Time.
type timeFlag mlcc.Time

func (t *timeFlag) String() string { return mlcc.Time(*t).String() }

func (t *timeFlag) Set(s string) error {
	d, err := time.ParseDuration(s)
	*t = timeFlag(mlcc.Time(d.Nanoseconds()) * mlcc.Nanosecond)
	return err
}

// parse builds the run's Config, unresolved, from args through fs, whose
// flags bind straight onto the Config's fields. With -spec, the spec's
// config replaces the flag defaults and the flags given explicitly are
// applied over it again; the plan, trace and guard flags then replace the
// spec's field, and -wan-loss and -fb-* append fault rules.
func parse(fs *flag.FlagSet, args []string) (mlcc.Config, error) {
	var c mlcc.Config
	fs.StringVar(&c.Algorithm, "alg", "mlcc", "congestion control algorithm: "+strings.Join(mlcc.Algorithms(), ", "))
	fs.StringVar(&c.Workload, "workload", "websearch", "traffic distribution: "+strings.Join(mlcc.Workloads(), ", "))
	fs.Float64Var(&c.IntraLoad, "intra", 0.5, "intra-DC load (fraction of per-host bisection capacity)")
	fs.Float64Var(&c.CrossLoad, "cross", 0.2, "cross-DC load (fraction of long-haul capacity)")
	c.Duration = 5 * mlcc.Millisecond
	fs.Var((*timeFlag)(&c.Duration), "duration", "flow arrival window")
	fs.IntVar(&c.HostsPerLeaf, "hosts-per-leaf", 8, "servers per rack (paper scale: 32)")
	fs.Var((*timeFlag)(&c.LongHaulDelay), "longhaul", "inter-DC propagation delay (0 = 3ms, or the scenario profile's)")
	fs.BoolVar(&c.Dumbbell, "dumbbell", false, "use the testbed dumbbell topology")
	fs.IntVar(&c.Shards, "shards", 1, "per-DC simulation engines (2 = parallel shards; results are bit-identical)")
	fs.Int64Var(&c.Seed, "seed", 1, "simulation seed")
	fs.BoolVar(&c.Audit, "audit", false, "enable the end-to-end conservation audit (exits non-zero on any violation)")
	fs.IntVar(&c.FBWatchdogK, "watchdog-k", 0, "arm the feedback-silence watchdog at K round-trips (0 = off, or the default K when a -fb-* flag is given)")
	var (
		spec      = fs.String("spec", "", "re-run the config of this run manifest (or of a hand-written {\"config\": {...}}); explicit flags override it")
		flowsIn   = fs.String("flows", "", "replay a flow trace file instead of generating traffic")
		scenIn    = fs.String("scenario", "", "run the composed scenario from this JSON plan file instead of generating traffic")
		scenKind  = fs.String("scenario-kind", "", "run a canonical acceptance scenario: "+strings.Join(mlcc.ScenarioKinds(), ", "))
		faultIn   = fs.String("fault-plan", "", "inject the scripted link/node faults from this JSON plan file")
		wanLoss   = fs.Float64("wan-loss", 0, "Bernoulli loss probability on the long-haul link for the whole run")
		useGuard  = fs.Bool("guard", false, "arm the runtime guard plane (PFC pause-storm watchdog, pause-cycle deadlock detector, global progress supervisor)")
		stallK    = fs.Int("guard-stall-k", 0, "progress-supervisor stall threshold in max-RTTs (0 = guard default; implies -guard)")
		fbLoss    = fs.Float64("fb-loss", 0, "drop probability for feedback frames (ACK/CNP/Switch-INT) at every host's feedback ingress")
		fbCorrupt = fs.Float64("fb-corrupt", 0, "INT-stack corruption probability for feedback frames at every host")
		fbDelay   mlcc.Time
		fbJitter  mlcc.Time
	)
	fs.Var((*timeFlag)(&fbDelay), "fb-delay", "fixed extra delay on every feedback frame")
	fs.Var((*timeFlag)(&fbJitter), "fb-jitter", "max uniform random extra feedback delay (bounded reordering)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if *spec != "" {
		err := withFile(*spec, os.Open, func(f *os.File) (err error) {
			c, err = mlcc.ReadSpec(f)
			return err
		})
		if err != nil {
			return c, err
		}
		if err := fs.Parse(args); err != nil {
			return c, err
		}
	}

	if *scenIn != "" && *scenKind != "" {
		return c, fmt.Errorf("-scenario and -scenario-kind are mutually exclusive")
	}
	if *scenIn != "" {
		err := withFile(*scenIn, os.Open, func(f *os.File) (err error) {
			c.Scenario, err = mlcc.ReadScenarioPlan(f)
			return err
		})
		if err != nil {
			return c, err
		}
	}
	if *faultIn != "" {
		err := withFile(*faultIn, os.Open, func(f *os.File) (err error) {
			c.Fault, err = mlcc.ReadFaultPlan(f)
			return err
		})
		if err != nil {
			return c, err
		}
	}
	fb := *fbLoss > 0 || *fbCorrupt > 0 || fbDelay > 0 || fbJitter > 0
	if c.Fault == nil && (*wanLoss > 0 || fb) {
		c.Fault = &mlcc.FaultPlan{Seed: c.Seed}
	}
	if *wanLoss > 0 {
		c.Fault.Loss = append(c.Fault.Loss, mlcc.FaultLossRule{Link: "longhaul", Prob: *wanLoss})
	}
	if fb {
		c.Fault.Feedback = append(c.Fault.Feedback, mlcc.FaultFeedbackRule{
			Host: "*", Drop: *fbLoss, Corrupt: *fbCorrupt, Delay: fbDelay, Jitter: fbJitter,
		})
		// Feedback under attack without a watchdog decays nothing; arm the
		// default unless the user chose a K (or explicitly left it off with
		// a JSON plan instead of flags).
		if c.FBWatchdogK == 0 {
			c.FBWatchdogK = mlcc.DefaultFBWatchdogK
		}
	}
	if *useGuard || *stallK > 0 {
		c.Guard = &mlcc.GuardConfig{StallK: *stallK}
	}
	// -scenario-kind sizes its plan by the topology's host count and -flows
	// checks its trace against it.
	var err error
	if *scenKind != "" {
		c.Scenario, err = mlcc.CanonicalScenario(*scenKind, c.Hosts(), c.Seed)
	}
	if err == nil && *flowsIn != "" {
		err = withFile(*flowsIn, os.Open, func(f *os.File) (err error) {
			c.Flows, err = mlcc.ReadFlows(f, c.Hosts())
			return err
		})
	}
	return c, err
}

// withFile opens path with open (os.Open or os.Create), hands the file to
// use and closes it, returning the first error.
func withFile(path string, open func(string) (*os.File, error), use func(*os.File) error) error {
	f, err := open(path)
	if err != nil {
		return err
	}
	err = use(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// check prints a non-nil err and exits with code.
func check(code int, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlccsim:", err)
		os.Exit(code)
	}
}

func main() {
	var (
		flowsOut = flag.String("save-flows", "", "write the generated workload to a trace file")
		fctOut   = flag.String("fct", "", "write per-flow completion times to a CSV file")
		flightN  = flag.Int("flight-recorder", 0, "keep the last N packet-lifecycle events in a flight recorder")
		telOut   = flag.String("telemetry-out", "", "write manifest.json/series.csv/flight.log to this directory (enables the metrics registry)")
		serve    = flag.String("serve", "", "serve live observability HTTP (/metrics, /manifest, /flight, /trace, /debug/pprof) on this address during and after the run (enables the metrics registry); Ctrl-C to exit")
		sample   mlcc.Time
	)
	flag.Var((*timeFlag)(&sample), "sample", "telemetry time-series sampling interval (default 100µs when -telemetry-out is set)")
	cfg, err := parse(flag.CommandLine, os.Args[1:])
	check(2, err)
	cfg, err = cfg.Resolve()
	check(1, err)
	nShards, warns, err := validateShards(cfg.Shards)
	check(2, err)
	for _, w := range warns {
		fmt.Fprintln(os.Stderr, "mlccsim:", w)
	}
	cfg.Shards = nShards
	if *telOut != "" && sample == 0 {
		sample = 100 * mlcc.Microsecond
	}
	if metrics := *telOut != "" || *serve != ""; metrics || *flightN > 0 {
		cfg.Telemetry = mlcc.NewTelemetry(mlcc.TelemetryOptions{
			Metrics:            metrics,
			FlightRecorderSize: *flightN,
			SampleInterval:     sample,
			SampleAll:          true,
		})
	}
	var srv *mlcc.ObsServer
	if *serve != "" {
		srv = mlcc.NewObsServer()
		cfg.Obs = srv
		addr, err := srv.Serve(*serve)
		check(1, err)
		fmt.Fprintf(os.Stderr, "mlccsim: observability server on http://%s\n", addr)
	}
	t0 := time.Now()
	res, err := mlcc.Run(cfg)
	check(1, err)
	if *flowsOut != "" {
		check(1, withFile(*flowsOut, os.Create, func(f *os.File) error { return mlcc.WriteFlows(f, res.Trace) }))
	}
	if *fctOut != "" {
		check(1, withFile(*fctOut, os.Create, func(f *os.File) error { return res.FCT.WriteCSV(f) }))
	}
	if *telOut != "" {
		check(1, cfg.Telemetry.WriteDir(*telOut))
	}
	report(os.Stdout, cfg, res, time.Since(t0))

	// A run that finished but failed the gate exits non-zero with one
	// diagnostic line per failure, so scripted callers don't have to parse
	// the summary.
	failures := res.Failures(faulted(cfg))
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "mlccsim:", f)
	}
	if srv != nil {
		fmt.Fprintf(os.Stderr, "mlccsim: serving final snapshot on http://%s; Ctrl-C to exit\n", srv.Addr())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		srv.Close()
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// faulted reports whether cfg's run applies a fault plan — a scenario
// profile's outages and jitter count, not just cfg.Fault. Only such a run
// reports aborts and fault drops, and only its aborts pass the gate.
func faulted(cfg mlcc.Config) bool { return cfg.Scenario.FaultPlan(cfg.Fault) != nil }

// report prints the run summary; every line but the last, elapsed, is a
// deterministic function of cfg.
func report(w io.Writer, cfg mlcc.Config, res *mlcc.Result, elapsed time.Duration) {
	fmt.Fprintf(w, "algorithm      %s\n", cfg.Algorithm)
	if cfg.Scenario != nil {
		fmt.Fprintf(w, "scenario       %s (%d components)\n", cfg.Scenario.Name, len(cfg.Scenario.Components()))
	} else {
		fmt.Fprintf(w, "workload       %s (intra %.0f%%, cross %.0f%%)\n", cfg.Workload, cfg.IntraLoad*100, cfg.CrossLoad*100)
	}
	fmt.Fprintf(w, "flows          %d (%d completed, %d unfinished)\n", res.Flows, res.Completed, res.Unfinished)
	if faulted(cfg) {
		fmt.Fprintf(w, "aborted flows  %d\n", res.Aborted)
		fmt.Fprintf(w, "fault drops    %d\n", res.FaultDrops)
	}
	if res.NodeCrashes+res.NodeRestarts+res.SwitchFails+res.SwitchRecovers > 0 {
		fmt.Fprintf(w, "node faults    %d crashes, %d restarts, %d switch fails, %d recovers\n",
			res.NodeCrashes, res.NodeRestarts, res.SwitchFails, res.SwitchRecovers)
	}
	if res.FBDrops > 0 || res.FBCorrupts > 0 || res.InvalidINT > 0 {
		fmt.Fprintf(w, "fb faults      %d dropped, %d corrupted, %d invalid INT discarded\n",
			res.FBDrops, res.FBCorrupts, res.InvalidINT)
	}
	if cfg.FBWatchdogK > 0 {
		fmt.Fprintf(w, "watchdog       K=%d: %d decays, %d recovers\n",
			cfg.FBWatchdogK, res.WatchdogDecays, res.WatchdogRecovers)
	}
	fmt.Fprintf(w, "avg FCT intra  %v\n", res.AvgFCTIntra)
	fmt.Fprintf(w, "avg FCT cross  %v\n", res.AvgFCTCross)
	fmt.Fprintf(w, "avg FCT        %v\n", res.AvgFCT)
	fmt.Fprintf(w, "p99.9 intra    %v\n", res.P999Intra)
	fmt.Fprintf(w, "p99.9 cross    %v\n", res.P999Cross)
	fmt.Fprintf(w, "PFC pauses     %d\n", res.PFCPauses)
	fmt.Fprintf(w, "drops          %d\n", res.Drops)
	for _, cs := range res.Collectives {
		state := "finished"
		if cs.Failed {
			state = "FAILED"
		} else if !cs.Finished {
			state = "unfinished"
		}
		fmt.Fprintf(w, "collective %-10s %s, %d/%d phases, last barrier at %v\n",
			cs.Name, state, cs.PhasesDone, cs.Phases, cs.FinishedAt)
	}
	if res.Tenants != nil {
		for _, name := range res.Tenants.Names() {
			avg, _ := res.Tenants.AvgFCT(name)
			p99, _ := res.Tenants.Percentile(name, 0.99)
			fmt.Fprintf(w, "tenant %-12s %d done, %d aborted, %d bytes, avg FCT %v, p99 %v\n",
				name, res.Tenants.Completed(name), res.Tenants.Aborted(name),
				res.Tenants.CompletedBytes(name), avg, p99)
		}
		fmt.Fprintf(w, "fairness       %.3f (Jain, completed bytes)\n", res.Tenants.Fairness())
	}
	if cfg.Guard != nil {
		fmt.Fprintf(w, "guard          %d storms, %d deadlocks, %d stalls\n",
			res.GuardStorms, res.GuardDeadlocks, res.GuardStalls)
	}
	if cfg.Audit {
		if len(res.AuditProblems) > 0 {
			fmt.Fprintf(w, "audit          %d conservation problem(s)\n", len(res.AuditProblems))
		} else {
			fmt.Fprintf(w, "%s\n", res.Audit)
		}
	}
	fmt.Fprintf(w, "elapsed        %v\n", elapsed.Round(time.Millisecond))
}
