package model

import "archline/internal/units"

// Regime classifies which term of eq. (3)'s max dominates at a given
// intensity: the memory-bandwidth term, the power-cap term, or the
// compute term. These are the "M", "C", and "F" annotations of fig. 6.
type Regime int

// The three regimes of the capped model.
const (
	MemoryBound  Regime = iota // Q tau_mem dominates ("M")
	CapBound                   // (W eps_flop + Q eps_mem)/DeltaPi dominates ("C")
	ComputeBound               // W tau_flop dominates ("F", flop-bound)
)

// String returns the regime's name.
func (r Regime) String() string {
	switch r {
	case MemoryBound:
		return "memory-bound"
	case CapBound:
		return "cap-bound"
	case ComputeBound:
		return "compute-bound"
	default:
		return "unknown"
	}
}

// Letter returns the paper's single-letter annotation used in fig. 6:
// "M" for memory-bound, "C" for cap-bound, "F" for flop-(compute-)bound.
func (r Regime) Letter() string {
	switch r {
	case MemoryBound:
		return "M"
	case CapBound:
		return "C"
	case ComputeBound:
		return "F"
	default:
		return "?"
	}
}

// RegimeAt classifies intensity i against the machine's cap interval
// [B_tau^-, B_tau^+] (see Kernel.RegimeAt).
func (p Params) RegimeAt(i units.Intensity) Regime {
	k := NewKernel(p)
	return k.RegimeAt(i.Ratio())
}

// ThrottleFactor is the slowdown the cap imposes at intensity i: the
// capped model's time divided by the uncapped model's time at the same
// workload. A value of 1 means the cap does not bind; the paper's "by how
// much flops and memory operations should slow down" prediction.
func (p Params) ThrottleFactor(i units.Intensity) float64 {
	k := NewKernel(p)
	return k.ThrottleFactor(i.Ratio())
}

// CapBindingRange returns the intensity interval [lo, hi] over which the
// power cap is the binding constraint, or ok == false when the cap never
// binds (DeltaPi >= pi_flop + pi_mem).
func (p Params) CapBindingRange() (lo, hi units.Intensity, ok bool) {
	if p.Powerful() {
		return 0, 0, false
	}
	return p.TimeBalanceMinus(), p.TimeBalancePlus(), true
}
