package model

import (
	"math"
)

// Kernel is the model's per-intensity evaluator and the only
// implementation of eqs. (2), (4), and (7) at a point: the handful of
// float64 coefficients those equations need, computed once per Params
// value (and therefore once per platform, precision, DVFS setting, or
// cap fraction), so that evaluating one grid point is straight-line
// float math — no interface dispatch, no map lookups, and zero
// allocations. The Params per-intensity methods are typed front ends
// that build a kernel and delegate to it; callers evaluating one
// machine at many intensities should build the kernel once instead.
//
// The intensity-independent subexpressions (B_tau, pi_flop, pi_mem,
// B_tau^±, the Powerful predicate) are hoisted to construction time.
// IEEE-754 arithmetic is deterministic, so hoisting a subexpression
// that does not depend on the grid point cannot change any result bit:
// Kernel output is bit-identical to the equations evaluated term by
// term on Params, which TestKernelMatchesParamsBitwise (across the
// platform database) and FuzzKernelMatchesReference (across arbitrary
// valid machines) check against the test-only reference formulas.
//
// The fields are intentionally raw float64 — several (the cap terms,
// reciprocal balances) have dimensions no units type names. The single
// type-level directive below declares the whole coefficient table as a
// dimensioned sink for archlint's dimcheck analyzer.
//
//archlint:dim any
type Kernel struct {
	tf, tm float64 // tau_flop (s/flop), tau_mem (s/B)
	ef, em float64 // eps_flop (J/flop), eps_mem (J/B)
	pi1    float64 // constant power (W)
	dp     float64 // usable power cap DeltaPi (W)

	bt       float64 // B_tau = tau_mem/tau_flop
	pf, pm   float64 // pi_flop, pi_mem (W)
	btPlus   float64 // B_tau^+ of eq. (5)
	btMinus  float64 // B_tau^- of eq. (6)
	powerful bool    // DeltaPi >= pi_flop + pi_mem: the cap never binds
}

// NewKernel precomputes the coefficient table for p. Construction costs
// a few dozen flops (B_tau, pi_flop, and pi_mem are derived once and
// reused for B_tau^± and the Powerful predicate); callers sweeping the
// same machine should build the kernel once and reuse it across grid
// points and requests.
func NewKernel(p Params) Kernel {
	k := Kernel{
		tf:  float64(p.TauFlop),
		tm:  float64(p.TauMem),
		ef:  float64(p.EpsFlop),
		em:  float64(p.EpsMem),
		pi1: p.Pi1.Watts(),
		dp:  p.DeltaPi.Watts(),
		bt:  p.TimeBalance().Ratio(),
		pf:  p.PiFlop().Watts(),
		pm:  p.PiMem().Watts(),
	}
	k.btPlus = timeBalancePlus(k.bt, k.pf, k.pm, k.dp)
	k.btMinus = timeBalanceMinus(k.bt, k.pf, k.pm, k.dp)
	k.powerful = k.dp >= k.pf+k.pm // Params.Powerful
	return k
}

// timePerFlop is T/W from eq. (4):
//
//	T/W = tau_flop * max(1, B_tau/I, (pi_flop/DeltaPi)(1 + B_eps/I))
//
// with the cap term written as (eps_flop + eps_mem/I)/DeltaPi/tau_flop,
// which also covers eps_flop = 0.
func (k *Kernel) timePerFlop(iv float64) float64 {
	capTerm := 0.0
	if dyn := k.ef + k.em/iv; dyn > 0 {
		capTerm = dyn / k.dp / k.tf
	}
	return k.tf * math.Max(1, math.Max(k.bt/iv, capTerm))
}

// FlopRateAt is the achieved throughput W/T (flop/s) at intensity ratio
// iv; zero for non-positive intensities and machines that cannot run.
func (k *Kernel) FlopRateAt(iv float64) float64 {
	if iv <= 0 {
		return 0
	}
	t := k.timePerFlop(iv)
	if t <= 0 || math.IsInf(t, 1) {
		return 0
	}
	return 1 / t
}

// FlopRateAtUncapped is the prior uncapped model's throughput,
// 1/(tau_flop max(1, B_tau/I)).
func (k *Kernel) FlopRateAtUncapped(iv float64) float64 {
	if iv <= 0 {
		return 0
	}
	t := k.tf * math.Max(1, k.bt/iv)
	return 1 / t
}

// EnergyPerFlopAt is E/W (J/flop) from eq. (2):
//
//	E/W = eps_flop (1 + B_eps/I) + pi_1 T/W
func (k *Kernel) EnergyPerFlopAt(iv float64) float64 {
	if iv <= 0 {
		return math.Inf(1)
	}
	dyn := k.ef + k.em/iv
	return dyn + k.pi1*k.timePerFlop(iv)
}

// FlopsPerJouleAt is the energy efficiency W/E (flop/J), zero where the
// energy per flop is non-positive or infinite.
func (k *Kernel) FlopsPerJouleAt(iv float64) float64 {
	e := k.EnergyPerFlopAt(iv)
	if e <= 0 || math.IsInf(e, 1) {
		return 0
	}
	return 1 / e
}

// AvgPowerAt is the average power E/T (W) of eq. (7): pi_1 + pi_flop +
// pi_mem B_tau/I at or above B_tau^+, pi_1 + pi_flop I/B_tau + pi_mem
// at or below B_tau^-, and pi_1 + DeltaPi in between. NaN for
// non-positive intensities.
func (k *Kernel) AvgPowerAt(iv float64) float64 {
	if iv <= 0 {
		return math.NaN()
	}
	switch {
	case iv >= k.btPlus:
		return k.pi1 + k.pf + k.pm*k.bt/iv
	case iv <= k.btMinus:
		return k.pi1 + k.pf*iv/k.bt + k.pm
	default:
		return k.pi1 + k.dp
	}
}

// RegimeAt classifies iv against the cap interval [B_tau^-, B_tau^+].
// When the cap never binds (Powerful), intensities below B_tau are
// memory-bound and those at or above are compute-bound; a NaN intensity
// is cap-bound.
func (k *Kernel) RegimeAt(iv float64) Regime {
	if math.IsNaN(iv) {
		return CapBound
	}
	if k.powerful {
		if iv < k.bt {
			return MemoryBound
		}
		return ComputeBound
	}
	switch {
	case iv >= k.btPlus:
		return ComputeBound
	case iv <= k.btMinus:
		return MemoryBound
	default:
		return CapBound
	}
}

// ThrottleFactor is the capped over the uncapped time of eq. (3) for
// the unit-flop workload (W=1, Q=1/I); 1 for non-positive intensities.
func (k *Kernel) ThrottleFactor(iv float64) float64 {
	if iv <= 0 {
		return 1
	}
	q := 1 / iv
	tu := math.Max(k.tf, q*k.tm)
	tMem := q * k.tm
	dynamic := k.ef + q*k.em
	tCap := 0.0
	if dynamic > 0 {
		tCap = dynamic / k.dp
	}
	tc := math.Max(k.tf, math.Max(tMem, tCap))
	if tu <= 0 {
		return 1
	}
	return tc / tu
}

// MetricAt evaluates metric m at iv; NaN for an unknown metric.
func (k *Kernel) MetricAt(m Metric, iv float64) float64 {
	switch m {
	case MetricFlopRate:
		return k.FlopRateAt(iv)
	case MetricFlopsPerJoule:
		return k.FlopsPerJouleAt(iv)
	case MetricAvgPower:
		return k.AvgPowerAt(iv)
	default:
		return math.NaN()
	}
}

// Point is one fully evaluated sweep sample: everything the roofline
// endpoints report per grid point, as raw float64s. Throttle is the
// raw throttle factor; consumers that need JSON-safe values must map
// non-finite entries themselves (the stream encoder omits them).
type Point struct {
	Intensity           float64
	Regime              Regime
	FlopsPerSec         float64
	UncappedFlopsPerSec float64
	FlopsPerJoule       float64
	AvgPowerW           float64
	Throttle            float64
}

// PointAt evaluates every per-point metric at one intensity ratio. It
// performs no allocations.
func (k *Kernel) PointAt(iv float64) Point {
	return Point{
		Intensity:           iv,
		Regime:              k.RegimeAt(iv),
		FlopsPerSec:         k.FlopRateAt(iv),
		UncappedFlopsPerSec: k.FlopRateAtUncapped(iv),
		FlopsPerJoule:       k.FlopsPerJouleAt(iv),
		AvgPowerW:           k.AvgPowerAt(iv),
		Throttle:            k.ThrottleFactor(iv),
	}
}

// AppendLogSpace appends the evaluated points with indices [start, end)
// of an n-point log-spaced grid over [exp(l0), exp(l1)] — the same grid
// formula LogSpace materializes, evaluated on the fly so streaming
// callers never hold the full grid. dst is caller-owned: pre-size its
// capacity to end-start and the call performs zero allocations.
func (k *Kernel) AppendLogSpace(dst []Point, l0, l1 float64, start, end, n int) []Point {
	for idx := start; idx < end; idx++ {
		frac := float64(idx) / float64(n-1)
		iv := math.Exp(l0 + frac*(l1-l0))
		dst = append(dst, k.PointAt(iv))
	}
	return dst
}
