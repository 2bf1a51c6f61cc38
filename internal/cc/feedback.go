package cc

import "mlcc/internal/pkt"

// ValidINTStack reports whether an INT hop stack is structurally sane:
// bounded depth, positive link bandwidth and non-negative queue length,
// transmit counter and timestamp on every hop. It is the ingress gate hosts
// apply to arriving feedback before any estimator sees the stack — a frame
// that fails here was corrupted in flight (or forged) and must be discarded
// and counted, never folded into control state.
//
// Cross-sample properties (per-hop monotone TS, non-decreasing TxBytes) need
// a previous stack and are enforced inside UtilEstimator.update and the
// algorithms' own delta loops.
func ValidINTStack(hops []pkt.INTHop) bool {
	if len(hops) > pkt.MaxINTHops {
		return false
	}
	for i := range hops {
		h := &hops[i]
		if h.Band <= 0 || h.QLen < 0 || h.TxBytes < 0 || h.TS < 0 {
			return false
		}
	}
	return true
}
