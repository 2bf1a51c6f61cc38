package topo

import (
	"fmt"
	"sort"

	"mlcc/internal/cc"
	"mlcc/internal/cc/dcqcn"
	"mlcc/internal/cc/hpcc"
	"mlcc/internal/cc/powertcp"
	"mlcc/internal/cc/timely"
	"mlcc/internal/core"
	"mlcc/internal/sim"
)

// Algorithm names accepted by WithAlgorithm.
const (
	AlgMLCC     = "mlcc"
	AlgDCQCN    = "dcqcn"
	AlgTimely   = "timely"
	AlgHPCC     = "hpcc"
	AlgPowerTCP = "powertcp"

	// MLCC ablations: each removes one of the paper's control loops so the
	// "ablation" experiment can attribute behaviour to individual loops.
	AlgMLCCNoNS  = "mlcc-nons"  // near-source loop disabled
	AlgMLCCNoDQM = "mlcc-nodqm" // DQM end-to-end rate ignored
)

// Algorithms lists the supported algorithm names, sorted.
func Algorithms() []string {
	names := []string{AlgMLCC, AlgDCQCN, AlgTimely, AlgHPCC, AlgPowerTCP}
	sort.Strings(names)
	return names
}

// AblationAlgorithms lists the MLCC ablation variants.
func AblationAlgorithms() []string {
	return []string{AlgMLCCNoNS, AlgMLCCNoDQM}
}

// WithAlgorithm returns a copy of p wired for the named congestion-control
// algorithm, including the per-algorithm switch features the paper assumes:
// WRED ECN marking for DCQCN, INT stamping for the INT-driven schemes, and
// the MLCC DCI behaviours (near-source reflection, PFQ, DQM) for MLCC.
func (p Params) WithAlgorithm(name string) Params {
	switch name {
	case AlgDCQCN:
		dp := dcqcn.DefaultParams()
		p.intEnabled = false
		p.dcKmin, p.dcKmax = 100<<10, 400<<10
		p.dciKmin, p.dciKmax = 5<<20, 25<<20
		p.ecnPmax = 0.05 // gentle WRED slope, as in production DCQCN configs
		p.cnpInterval = dp.CNPInterval
		p.alg = func(eng *sim.Engine) cc.Algorithm {
			return cc.Algorithm{Name: name, NewSender: dcqcn.New(eng, dp)}
		}
	case AlgTimely:
		p.intEnabled = false
		p.dcKmax, p.dciKmax = 0, 0
		p.cnpInterval = 0
		p.alg = func(eng *sim.Engine) cc.Algorithm {
			return cc.Algorithm{Name: name, NewSender: timely.New(timely.DefaultParams())}
		}
	case AlgHPCC:
		p.intEnabled = true
		p.dcKmax, p.dciKmax = 0, 0
		p.cnpInterval = 0
		p.alg = func(eng *sim.Engine) cc.Algorithm {
			return cc.Algorithm{Name: name, NewSender: hpcc.New(hpcc.DefaultParams())}
		}
	case AlgPowerTCP:
		p.intEnabled = true
		p.dcKmax, p.dciKmax = 0, 0
		p.cnpInterval = 0
		p.alg = func(eng *sim.Engine) cc.Algorithm {
			return cc.Algorithm{Name: name, NewSender: powertcp.New(powertcp.DefaultParams())}
		}
	case AlgMLCC, AlgMLCCNoNS, AlgMLCCNoDQM:
		p.intEnabled = true
		p.dcKmax, p.dciKmax = 0, 0
		p.cnpInterval = 0
		mp := core.DefaultParams()
		mp.DQM = p.DQM
		mp.DisableNearSource = name == AlgMLCCNoNS
		mp.DisableDQM = name == AlgMLCCNoDQM
		p.alg = func(eng *sim.Engine) cc.Algorithm {
			return cc.Algorithm{
				Name:        name,
				NewSender:   core.NewSender(mp),
				NewReceiver: core.NewReceiver(mp),
				UseMLCCDCI:  true,
			}
		}
	default:
		panic(fmt.Sprintf("topo: unknown algorithm %q (have %v)", name, Algorithms()))
	}
	return p
}
