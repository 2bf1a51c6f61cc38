package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mlcc/internal/sim"
)

// TestShardRecorders pins the per-shard recorder contract: index 0 is the
// primary recorder, further shards get fresh rings with the same capacity,
// repeated calls return the same set, and FlightEvents
// merges the streams time-ordered with shard order breaking ties.
func TestShardRecorders(t *testing.T) {
	tel := New(Options{FlightRecorderSize: 8})
	frs := tel.ShardRecorders(2)
	if len(frs) != 2 || frs[0] != tel.fr {
		t.Fatalf("ShardRecorders(2) = %v", frs)
	}
	if frs[1].Cap() != 8 || frs[1].buffered() != 0 {
		t.Fatal("shard 1 recorder is not a fresh ring of the same capacity")
	}
	again := tel.ShardRecorders(2)
	if again[1] != frs[1] {
		t.Fatal("repeated ShardRecorders minted new recorders")
	}

	frs[0].Record(Event{T: 10, Kind: EvDrop, Node: 1})
	frs[0].Record(Event{T: 30, Kind: EvDrop, Node: 1})
	frs[1].Record(Event{T: 20, Kind: EvAck, Node: 2})
	frs[1].Record(Event{T: 30, Kind: EvAck, Node: 2})

	evs := tel.FlightEvents()
	if len(evs) != 4 {
		t.Fatalf("merged %d events, want 4", len(evs))
	}
	wantT := []sim.Time{10, 20, 30, 30}
	for i, ev := range evs {
		if ev.T != wantT[i] {
			t.Fatalf("merge order: %v", evs)
		}
	}
	// Stable merge: at T=30 the shard-0 event precedes the shard-1 event.
	if evs[2].Node != 1 || evs[3].Node != 2 {
		t.Fatalf("tie order: %v", evs[2:])
	}
	if tel.FlightRecorded() != 4 {
		t.Fatalf("FlightRecorded = %d", tel.FlightRecorded())
	}
}

// TestShardRecordersRace exercises two shards recording concurrently into
// their own rings — the sharded hot-path pattern — under the race detector,
// with a merge after the writers are quiescent.
func TestShardRecordersRace(t *testing.T) {
	tel := New(Options{FlightRecorderSize: 1024})
	frs := tel.ShardRecorders(2)
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		fr := frs[s]
		node := int16(s + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4096; i++ {
				fr.Record(Event{T: sim.Time(i), Kind: EvEnqueue, Node: node})
			}
		}()
	}
	wg.Wait()
	if got := tel.FlightRecorded(); got != 8192 {
		t.Fatalf("FlightRecorded = %d, want 8192", got)
	}
	if evs := tel.FlightEvents(); len(evs) != 2048 {
		t.Fatalf("merged %d buffered events, want 2048", len(evs))
	}
}

// TestWriteFileAtomic pins the temp-file-plus-rename contract: a failed
// write leaves the previous file byte-identical and no temp litter, a
// successful write replaces it completely.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, []byte("intact"), 0o644); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	err := writeFile(path, func(w io.Writer) error {
		w.Write([]byte("partial garbage"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("writeFile error = %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "intact" {
		t.Fatalf("failed write clobbered the file: %q", got)
	}

	if err := writeFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("replaced"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "replaced" {
		t.Fatalf("write result: %q", got)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp litter in %s: %v", dir, ents)
	}
}

// TestTraceJSON pins the causal-span construction: send/deliver pairs become
// flight spans, enqueue/dequeue pairs become queue-residency spans, odd
// events degrade to instants, and the flow filter drops foreign flows.
func TestTraceJSON(t *testing.T) {
	events := []Event{
		{T: 1000, Kind: EvSend, Node: 1, Flow: 7, Val: 0},
		{T: 2000, Kind: EvEnqueue, Node: 100, Port: 2, Flow: 7, Val: 1500},
		{T: 2500, Kind: EvECNMark, Node: 100, Port: 2, Flow: 7, Val: 9},
		{T: 3000, Kind: EvDequeue, Node: 100, Port: 2, Flow: 7, Val: 1500},
		{T: 5000, Kind: EvDeliver, Node: 2, Flow: 7, Val: 0},
		{T: 6000, Kind: EvSend, Node: 3, Flow: 8, Val: 0},                // filtered out
		{T: 9000, Kind: EvDequeue, Node: 100, Port: 3, Flow: 7, Val: 64}, // unmatched
	}
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, events, 7, func(n int32) string {
		if n == 100 {
			return "leaf0"
		}
		return "host"
	}); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var spans, instants, metas int
	for _, te := range tr.TraceEvents {
		switch te.Ph {
		case "X":
			spans++
			if te.Pid != 7 {
				t.Errorf("span pid = %d, want flow 7", te.Pid)
			}
			switch te.Name {
			case "flight seq=0":
				if te.TS != 0.001 || te.Dur != 0.004 { // ps → µs
					t.Errorf("flight span ts=%v dur=%v", te.TS, te.Dur)
				}
			case "q2":
				if te.Tid != 100 || te.Dur != 0.001 {
					t.Errorf("queue span: %+v", te)
				}
			default:
				t.Errorf("unexpected span %q", te.Name)
			}
		case "i":
			instants++
		case "M":
			metas++
		}
		if te.Ph != "M" && te.Pid == 8 {
			t.Errorf("flow filter leaked event %+v", te)
		}
	}
	if spans != 2 {
		t.Errorf("spans = %d, want 2 (flight + queue)", spans)
	}
	if instants != 2 { // ecn_mark + unmatched dequeue
		t.Errorf("instants = %d, want 2", instants)
	}
	if metas == 0 || !strings.Contains(buf.String(), "leaf0") {
		t.Error("missing track metadata / node names")
	}
}
