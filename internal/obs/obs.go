// Package obs is the live observability server: an HTTP endpoint set served
// over an immutable-snapshot scheme so that readers never race the
// simulation. The simulator publishes a *Snapshot at quiescent points (shard
// barriers, sample boundaries, end of run); HTTP handlers load the latest
// snapshot with one atomic pointer read and serve entirely from it. Nothing
// the handlers touch is ever mutated after publish, so the server needs no
// locks and adds no cost to the hot path — an unattached or idle server is
// just a parked goroutine.
//
// Endpoints:
//
//	/metrics        Prometheus text exposition of the registry snapshot
//	/manifest       run manifest(s) as JSON
//	/flight?last=N  flight-recorder tail in flight.log format
//	/trace?flow=K   Chrome trace_event JSON (flow 0 = all flows)
//	/healthz        liveness + snapshot epoch
//	/debug/pprof/*  standard net/http/pprof profiles of the simulator itself
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"

	"mlcc/internal/metrics"
	"mlcc/internal/sim"
	"mlcc/internal/topo"
)

// Snapshot is one immutable view of a simulation, published whole. Handlers
// treat every field as read-only; Publish hands ownership of the slices to
// the server, so callers must not retain or mutate them afterwards.
type Snapshot struct {
	// epoch increments on every publish — /healthz exposes it so a poller
	// can tell a live run from a stalled one.
	epoch uint64

	now     sim.Time
	Fired   uint64
	pending int
	running bool
	shards  int

	// stalled and stallReason surface a guard-plane halt: the run stopped
	// making progress and was gracefully aborted (see internal/guard).
	// /healthz exposes the flag so a poller distinguishes "idle between
	// publishes" from "diagnosed stall".
	stalled     bool
	stallReason string

	// Points is the registry snapshot backing /metrics.
	Points []metrics.Point

	// events, flightTotal and flightCap back /flight and /trace: the
	// shard-merged flight-recorder stream plus its accounting.
	events      []metrics.Event
	flightTotal uint64
	flightCap   int

	// manifests back /manifest (one per completed run; figure tools
	// accumulate several).
	manifests []*metrics.Manifest

	// namer maps flight-recorder node ids to topology names in /trace.
	namer func(node int32) string
}

// Server serves observability endpoints from the latest published Snapshot.
// The zero value is not usable; call NewServer.
type Server struct {
	mux   *http.ServeMux
	snap  atomic.Pointer[Snapshot]
	epoch atomic.Uint64

	srv *http.Server
	ln  net.Listener
}

// NewServer returns a server with all endpoints registered but no snapshot
// yet: data endpoints answer 503 until the first Publish.
func NewServer() *Server {
	s := &Server{mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/manifest", s.handleManifest)
	s.mux.HandleFunc("/flight", s.handleFlight)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the endpoint mux (for httptest or embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Publish installs snap as the served view, stamping its epoch. The caller
// must not touch snap or anything it references afterwards.
func (s *Server) Publish(snap *Snapshot) {
	if s == nil {
		return
	}
	snap.epoch = s.epoch.Add(1)
	s.snap.Store(snap)
}

// PublishNetwork snapshots a built network and publishes it. It reads the
// telemetry planes and the network clock, so it must only run with the
// simulation quiescent — between Run calls, or from an OnQuiescent hook
// (which is exactly what Attach arranges). Nil-safe on s and on a network
// without telemetry.
func (s *Server) PublishNetwork(n *topo.Network, running bool) {
	if s == nil {
		return
	}
	tel := n.P.Telemetry
	halted, reason := n.Halted()
	snap := &Snapshot{
		now:         n.Now(),
		Fired:       n.Fired(),
		pending:     n.PendingEvents(),
		running:     running,
		shards:      n.ShardCount(),
		stalled:     halted,
		stallReason: reason,
		Points:      tel.Registry().Snapshot(),
		events:      tel.FlightEvents(),
		flightTotal: tel.FlightRecorded(),
		flightCap:   tel.Recorder().Cap(),
		namer:       n.NodeName,
	}
	if tel != nil && tel.Manifest != nil {
		snap.manifests = []*metrics.Manifest{tel.Manifest.Clone()}
	}
	s.Publish(snap)
}

// Attach arranges for the server to republish the network every sim-time
// interval while n.Run executes, plus the natural publishes the caller makes
// around the run. The hook fires at quiescent boundaries only, so readers
// and engines never share a moment. Nil-safe on s.
func (s *Server) Attach(n *topo.Network, every sim.Time) {
	if s == nil {
		return
	}
	n.OnQuiescent(every, func(sim.Time) { s.PublishNetwork(n, true) })
}

// AddManifest appends a completed run's manifest to the served set
// (copy-on-write over the current snapshot). Figure tools use it to expose
// each run as it finishes without owning a network.
func (s *Server) AddManifest(m *metrics.Manifest) {
	if s == nil || m == nil {
		return
	}
	next := &Snapshot{}
	if cur := s.snap.Load(); cur != nil {
		*next = *cur
	}
	mans := make([]*metrics.Manifest, 0, len(next.manifests)+1)
	mans = append(mans, next.manifests...)
	next.manifests = append(mans, m.Clone())
	s.Publish(next)
}

// Serve starts listening on addr (":0" picks a free port) and serves in a
// background goroutine. It returns the bound address. Nil-safe: a nil server
// returns an error.
func (s *Server) Serve(addr string) (string, error) {
	if s == nil {
		return "", fmt.Errorf("obs: Serve on nil server")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close is expected
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Serve).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and in-flight handlers. No-op before Serve.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// load returns the current snapshot, or (nil, false) after writing a 503
// when nothing has been published yet.
func (s *Server) load(w http.ResponseWriter) (*Snapshot, bool) {
	snap := s.snap.Load()
	if snap == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return nil, false
	}
	return snap, true
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "mlcc observability server\n\n"+
		"/metrics        Prometheus text metrics\n"+
		"/manifest       run manifest(s), JSON\n"+
		"/flight?last=N  flight-recorder tail\n"+
		"/trace?flow=K   Chrome trace_event JSON (omit or 0 = all flows)\n"+
		"/healthz        liveness + snapshot epoch\n"+
		"/debug/pprof/   simulator profiles\n")
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.snap.Load()
	if snap == nil {
		fmt.Fprintln(w, "ok epoch=0")
		return
	}
	fmt.Fprintf(w, "ok epoch=%d sim_ms=%.3f events=%d running=%v shards=%d stalled=%v\n",
		snap.epoch, snap.now.Millis(), snap.Fired, snap.running, snap.shards, snap.stalled)
}

// promName maps a dotted registry name onto the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*; every other byte becomes '_'.
func promName(name string) string {
	b := []byte(name)
	for i, c := range b {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			b[i] = '_'
		}
	}
	return string(b)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap, ok := s.load(w)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	meta := []metrics.Point{
		{Name: "mlcc_sim_now_seconds", Value: snap.now.Seconds(), Kind: metrics.PointGauge},
		{Name: "mlcc_sim_events_fired", Value: float64(snap.Fired), Kind: metrics.PointCounter},
		{Name: "mlcc_sim_events_pending", Value: float64(snap.pending), Kind: metrics.PointGauge},
		{Name: "mlcc_sim_running", Value: boolVal(snap.running), Kind: metrics.PointGauge},
		{Name: "mlcc_sim_shards", Value: float64(snap.shards), Kind: metrics.PointGauge},
		{Name: "mlcc_sim_stalled", Value: boolVal(snap.stalled), Kind: metrics.PointGauge},
		{Name: "mlcc_flight_recorded_total", Value: float64(snap.flightTotal), Kind: metrics.PointCounter},
		{Name: "mlcc_obs_snapshot_epoch", Value: float64(snap.epoch), Kind: metrics.PointCounter},
	}
	for _, p := range append(meta, snap.Points...) {
		name := promName(p.Name)
		fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n",
			name, p.Kind, name, strconv.FormatFloat(p.Value, 'g', -1, 64))
	}
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (s *Server) handleManifest(w http.ResponseWriter, _ *http.Request) {
	snap, ok := s.load(w)
	if !ok {
		return
	}
	if len(snap.manifests) == 0 {
		http.Error(w, "no manifest in snapshot", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if len(snap.manifests) == 1 {
		snap.manifests[0].WriteJSON(w) //nolint:errcheck // best-effort HTTP write
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap.manifests) //nolint:errcheck // best-effort HTTP write
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.load(w)
	if !ok {
		return
	}
	events := snap.events
	if q := r.URL.Query().Get("last"); q != "" {
		last, err := strconv.Atoi(q)
		if err != nil || last < 0 {
			http.Error(w, "last must be a non-negative integer", http.StatusBadRequest)
			return
		}
		if last < len(events) {
			events = events[len(events)-last:]
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	metrics.DumpEvents(w, events, snap.flightTotal, snap.flightCap) //nolint:errcheck
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.load(w)
	if !ok {
		return
	}
	var flow int64
	if q := r.URL.Query().Get("flow"); q != "" {
		var err error
		flow, err = strconv.ParseInt(q, 10, 32)
		if err != nil || flow < 0 {
			http.Error(w, "flow must be a non-negative integer", http.StatusBadRequest)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	metrics.WriteTraceJSON(w, snap.events, int32(flow), snap.namer) //nolint:errcheck
}
