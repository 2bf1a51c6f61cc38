package metrics

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteTraceJSON exports a flight-recorder event stream as Chrome
// trace_event JSON (the "JSON Array with metadata" form accepted by
// chrome://tracing and Perfetto). Lifecycle pairs become duration ("X")
// spans and everything else becomes an instant event, so one flow's path —
// send → queue residency per hop → deliver, plus the feedback frames that
// close the loop — reads causally on a timeline:
//
//   - EvSend/EvDeliver pairs (matched FIFO per flow and sequence number, so
//     retransmissions pair with their own delivery) become "flight seq=N"
//     spans on the sending node's track.
//   - EvEnqueue/EvDequeue pairs (matched FIFO per node, port and flow — the
//     queues are FIFO per class, so first-in matches first-out) become
//     "q<port>" residency spans on the queueing node's track.
//   - Every other kind (drop, ecn_mark, cnp, ack, rate, fault and feedback
//     events, watchdog) is an instant with its Val attached.
//
// Tracks are organized per flow: the trace "process" id is the flow id and
// the "thread" id is the node, labelled through namer (topology names like
// "host3" or "dci0"; a nil namer falls back to "node<id>"). flow > 0 filters
// the export to that flow; 0 exports everything, with flow-less events
// (PFC, link state) grouped under process 0.
//
// Pair starts whose end lies beyond the recorder's buffer (or vice versa)
// degrade to instants, so a wrapped ring still exports every event it holds.
func WriteTraceJSON(w io.Writer, events []Event, flow int32, namer func(node int32) string) error {
	if namer == nil {
		namer = func(n int32) string { return fmt.Sprintf("node%d", n) }
	}

	// First pass: match lifecycle pairs FIFO. endOf[i] is the index of the
	// event closing the span opened by event i; consumed[j] marks j as a
	// matched end. Working over indices keeps the second pass — and the
	// output — in deterministic event order.
	type qkey struct{ node, port, flow int32 }
	type fkey struct {
		flow int32
		seq  int64
	}
	endOf := make(map[int]int)
	consumed := make(map[int]bool)
	enqFIFO := make(map[qkey][]int)
	sendFIFO := make(map[fkey][]int)
	match := func(i int) {
		ev := events[i]
		switch ev.Kind {
		case EvEnqueue:
			k := qkey{int32(ev.Node), int32(ev.Port), ev.Flow}
			enqFIFO[k] = append(enqFIFO[k], i)
		case EvDequeue:
			k := qkey{int32(ev.Node), int32(ev.Port), ev.Flow}
			if q := enqFIFO[k]; len(q) > 0 {
				endOf[q[0]], consumed[i] = i, true
				enqFIFO[k] = q[1:]
			}
		case EvSend:
			k := fkey{ev.Flow, ev.Val}
			sendFIFO[k] = append(sendFIFO[k], i)
		case EvDeliver:
			k := fkey{ev.Flow, ev.Val}
			if q := sendFIFO[k]; len(q) > 0 {
				endOf[q[0]], consumed[i] = i, true
				sendFIFO[k] = q[1:]
			}
		}
	}
	for i, ev := range events {
		if flow > 0 && ev.Flow != flow {
			continue
		}
		match(i)
	}

	// Second pass: emit spans at their start positions, instants elsewhere.
	type track struct{ pid, tid int32 }
	tracks := make(map[track]bool)
	out := make([]map[string]any, 0, len(events))
	for i, ev := range events {
		if flow > 0 && ev.Flow != flow {
			continue
		}
		if consumed[i] {
			continue
		}
		tracks[track{ev.Flow, int32(ev.Node)}] = true
		te := map[string]any{
			"ts":   ev.T.Micros(),
			"pid":  ev.Flow,
			"tid":  ev.Node,
			"args": map[string]any{"val": ev.Val},
		}
		if j, ok := endOf[i]; ok {
			te["ph"] = "X"
			te["dur"] = (events[j].T - ev.T).Micros()
			if ev.Kind == EvSend {
				te["cat"] = "flight"
				te["name"] = fmt.Sprintf("flight seq=%d", ev.Val)
			} else {
				te["cat"] = "queue"
				te["name"] = fmt.Sprintf("q%d", ev.Port)
			}
		} else {
			te["ph"] = "i"
			te["s"] = "t"
			te["cat"] = "event"
			te["name"] = ev.Kind.String()
		}
		out = append(out, te)
	}

	// Track metadata: label each process with its flow and each thread with
	// its topology node name. Iterate in event order for determinism.
	seen := make(map[track]bool)
	for _, ev := range events {
		if flow > 0 && ev.Flow != flow {
			continue
		}
		tr := track{ev.Flow, int32(ev.Node)}
		if !tracks[tr] || seen[tr] {
			continue
		}
		seen[tr] = true
		pname := "fabric"
		if tr.pid > 0 {
			pname = fmt.Sprintf("flow %d", tr.pid)
		}
		out = append(out,
			map[string]any{"ph": "M", "name": "process_name", "pid": tr.pid, "tid": tr.tid,
				"args": map[string]any{"name": pname}},
			map[string]any{"ph": "M", "name": "thread_name", "pid": tr.pid, "tid": tr.tid,
				"args": map[string]any{"name": namer(tr.tid)}},
		)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
	})
}
