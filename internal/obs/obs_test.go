package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mlcc/internal/exp"
	"mlcc/internal/metrics"
	"mlcc/internal/obs"
	"mlcc/internal/sim"
	"mlcc/internal/topo"
	"mlcc/internal/workload"
)

// liveNetwork builds a sharded dumbbell with every telemetry plane on and a
// small websearch workload scheduled, ready to Run.
func liveNetwork(t *testing.T, shards int) (*topo.Network, *metrics.Telemetry) {
	t.Helper()
	tel := metrics.New(metrics.Options{
		Metrics:            true,
		FlightRecorderSize: 2048,
		SampleInterval:     100 * sim.Microsecond,
		SampleAll:          true,
		PerFlow:            true,
	})
	tel.Manifest = metrics.NewManifest("obs_test")
	p := topo.DefaultParams().WithAlgorithm(topo.AlgMLCC)
	p.Seed = 1
	p.HostsPerLeaf = 2
	p.Shards = shards
	p.Telemetry = tel
	n := topo.Dumbbell(p)
	if got := n.ShardCount(); got != shards {
		t.Fatalf("ShardCount = %d, want %d (fallback: %v)", got, shards, p.ShardFallback())
	}
	flows, err := workload.Generate(workload.Spec{
		CDF:       workload.Websearch(),
		IntraLoad: 0.4,
		CrossLoad: 0.2,
		HostRate:  n.P.HostRate,
		IntraRate: n.PerHostBisection(),
		CrossRate: n.P.FabricRate,
		Hosts:     n.NumHosts(),
		Duration:  sim.Millisecond,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range flows {
		n.AddFlow(fs.Src, fs.Dst, fs.Size, fs.Start)
	}
	return n, tel
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestEndpointsLiveRun drives every endpoint against a sharded simulation:
// mid-run through quiescent-hook publishes, then again after the final
// publish. The mid-run reads happen from inside an OnQuiescent hook — the
// exact context Attach serves from — so a data race here is a real one.
func TestEndpointsLiveRun(t *testing.T) {
	n, tel := liveNetwork(t, 2)
	s := obs.NewServer()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Before any publish: data endpoints must refuse, liveness must not.
	if code, _ := get(t, ts, "/metrics"); code != http.StatusServiceUnavailable {
		t.Errorf("pre-publish /metrics = %d, want 503", code)
	}
	if code, body := get(t, ts, "/healthz"); code != http.StatusOK || !strings.Contains(body, "epoch=0") {
		t.Errorf("pre-publish /healthz = %d %q, want 200 epoch=0", code, body)
	}

	s.Attach(n, 200*sim.Microsecond)
	midChecks := 0
	n.OnQuiescent(200*sim.Microsecond, func(sim.Time) {
		// Registered after Attach, so a fresh snapshot is already published.
		code, body := get(t, ts, "/metrics")
		if code != http.StatusOK || !strings.Contains(body, "mlcc_sim_running 1") {
			t.Fatalf("mid-run /metrics = %d %q", code, body)
		}
		if code, _ := get(t, ts, "/flight?last=5"); code != http.StatusOK {
			t.Fatalf("mid-run /flight = %d", code)
		}
		midChecks++
	})

	tel.StartSampling(4 * sim.Millisecond)
	n.Run(4 * sim.Millisecond)
	s.PublishNetwork(n, false)

	if midChecks == 0 {
		t.Fatal("no mid-run endpoint checks ran")
	}

	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "running=false") || !strings.Contains(body, "shards=2") {
		t.Errorf("/healthz = %d %q, want running=false shards=2", code, body)
	}

	code, body = get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE mlcc_sim_events_fired counter",
		"mlcc_sim_running 0",
		"# TYPE host_h0_tx_bytes counter", // dotted name sanitized
		"mlcc_flight_recorded_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "host.h0") {
		t.Error("/metrics leaked unsanitized dotted name")
	}

	code, body = get(t, ts, "/manifest")
	if code != http.StatusOK {
		t.Fatalf("/manifest = %d", code)
	}
	var man map[string]any
	if err := json.Unmarshal([]byte(body), &man); err != nil {
		t.Fatalf("/manifest not JSON: %v", err)
	}
	if man["tool"] != "obs_test" {
		t.Errorf("/manifest tool = %v, want obs_test", man["tool"])
	}

	code, body = get(t, ts, "/flight?last=10")
	if code != http.StatusOK {
		t.Fatalf("/flight = %d", code)
	}
	if lines := strings.Count(body, "\n"); lines > 12 {
		t.Errorf("/flight?last=10 returned %d lines, want tail only", lines)
	}
	if !strings.Contains(body, "flight recorder:") {
		t.Errorf("/flight missing header: %q", body)
	}

	// Pick a flow still present in the ring from the unfiltered trace, then
	// check the filtered trace keeps it and drops everything else.
	code, body = get(t, ts, "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace = %d", code)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	flow := 0.0
	for _, ev := range tr.TraceEvents {
		if pid, ok := ev["pid"].(float64); ok && ev["ph"] != "M" && pid > 0 {
			flow = pid
			break
		}
	}
	if flow == 0 {
		t.Fatal("/trace has no flow events")
	}
	code, body = get(t, ts, fmt.Sprintf("/trace?flow=%.0f", flow))
	if code != http.StatusOK {
		t.Fatalf("/trace?flow=%.0f = %d", flow, code)
	}
	tr.TraceEvents = nil
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/trace?flow not JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Errorf("/trace?flow=%.0f has no events", flow)
	}
	for _, ev := range tr.TraceEvents {
		if pid, ok := ev["pid"].(float64); ok && ev["ph"] != "M" && pid != flow {
			t.Errorf("/trace?flow=%.0f leaked flow %v", flow, pid)
		}
	}

	if code, _ := get(t, ts, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, body := get(t, ts, "/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}

	// Parameter validation.
	if code, _ := get(t, ts, "/flight?last=x"); code != http.StatusBadRequest {
		t.Errorf("/flight?last=x = %d, want 400", code)
	}
	if code, _ := get(t, ts, "/trace?flow=-1"); code != http.StatusBadRequest {
		t.Errorf("/trace?flow=-1 = %d, want 400", code)
	}
	if code, _ := get(t, ts, "/nosuch"); code != http.StatusNotFound {
		t.Errorf("/nosuch = %d, want 404", code)
	}
}

// TestServeClose exercises the real listener path: Serve on a free port,
// fetch /healthz over TCP, Close, and confirm the port is released.
func TestServeClose(t *testing.T) {
	s := obs.NewServer()
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := s.Addr(); got != addr {
		t.Errorf("Addr = %q, want %q", got, addr)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "ok") {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("GET after Close succeeded, want connection error")
	}
}

// TestAddManifest checks the copy-on-write manifest accumulation mlccfig
// uses: one manifest serves as a JSON object, several as a JSON array.
func TestAddManifest(t *testing.T) {
	s := obs.NewServer()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.Publish(&obs.Snapshot{})
	if code, _ := get(t, ts, "/manifest"); code != http.StatusNotFound {
		t.Errorf("empty /manifest = %d, want 404", code)
	}

	m1 := metrics.NewManifest("fig1")
	s.AddManifest(m1)
	m1.Tool = "mutated-after-publish" // must not affect the served clone
	code, body := get(t, ts, "/manifest")
	if code != http.StatusOK {
		t.Fatalf("/manifest = %d", code)
	}
	var one map[string]any
	if err := json.Unmarshal([]byte(body), &one); err != nil || one["tool"] != "fig1" {
		t.Errorf("/manifest = %q err=%v, want single object tool=fig1", body, err)
	}

	s.AddManifest(metrics.NewManifest("fig2"))
	code, body = get(t, ts, "/manifest")
	if code != http.StatusOK {
		t.Fatalf("/manifest = %d", code)
	}
	var many []map[string]any
	if err := json.Unmarshal([]byte(body), &many); err != nil || len(many) != 2 {
		t.Errorf("/manifest = %q err=%v, want array of 2", body, err)
	}
}

// TestPublishRace hammers Publish against concurrent handler reads; run
// under -race this pins the snapshot-swap scheme (it is the `make check`
// race gate for this package).
func TestPublishRace(t *testing.T) {
	s := obs.NewServer()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			s.Publish(&obs.Snapshot{
				Fired:  uint64(i),
				Points: []metrics.Point{{Name: "sim.x", Value: float64(i), Kind: metrics.PointCounter}},
			})
		}
		close(stop)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				rec = httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
			}
		}()
	}
	wg.Wait()
}

// TestDigestObsInvariant pins the tentpole guarantee end to end: attaching
// the observability server through Config.Obs — with every telemetry plane
// active, publishing at every 100 µs sample boundary, at shards=1 and
// shards=2 — leaves the determinism digest byte-identical to a bare
// telemetry-off single-engine run.
func TestDigestObsInvariant(t *testing.T) {
	algs := []string{"mlcc"}
	if !testing.Short() {
		algs = append(algs, "dcqcn")
	}
	for _, alg := range algs {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			bare, _ := exp.DeterminismDigest(exp.DigestConfig(alg, 1))
			for _, shards := range []int{1, 2} {
				tel := metrics.New(metrics.Options{
					Metrics:            true,
					FlightRecorderSize: 4096,
					SampleInterval:     100 * sim.Microsecond,
					SampleAll:          true,
					PerFlow:            true,
				})
				c := exp.DigestConfig(alg, 1)
				c.Telemetry, c.Shards, c.Obs = tel, shards, obs.NewServer()
				got, _ := exp.DeterminismDigest(c)
				if got != bare {
					t.Errorf("digest(%s, shards=%d, obs attached) = %#016x, want bare %#016x",
						alg, shards, got, bare)
				}
			}
		})
	}
}
