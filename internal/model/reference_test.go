package model_test

import (
	"math"

	"archline/internal/model"
	"archline/internal/units"
)

// This file is the formula oracle for Kernel: the per-intensity
// equations (2), (4), and (7) written directly against Params, one
// subexpression at a time, with nothing hoisted. Kernel is the only
// production implementation; TestKernelMatchesParamsBitwise and
// FuzzKernelMatchesReference require it to reproduce these functions
// bit for bit.

// refFlopRateAt is the achieved computational throughput W/T at
// intensity I. From eq. (4):
//
//	T/W = tau_flop * max(1, B_tau/I, (pi_flop/DeltaPi)(1 + B_eps/I))
func refFlopRateAt(p model.Params, i units.Intensity) units.FlopRate {
	if i <= 0 {
		return 0
	}
	t := refTimePerFlopAt(p, i)
	if t <= 0 || math.IsInf(t, 1) {
		return 0
	}
	return units.FlopRate(1 / t)
}

// refFlopRateAtUncapped is the uncapped model's throughput at intensity I.
func refFlopRateAtUncapped(p model.Params, i units.Intensity) units.FlopRate {
	if i <= 0 {
		return 0
	}
	t := float64(p.TauFlop) * math.Max(1, p.TimeBalance().Ratio()/i.Ratio())
	return units.FlopRate(1 / t)
}

// refTimePerFlopAt is T/W from eq. (4) (seconds per flop at intensity I).
func refTimePerFlopAt(p model.Params, i units.Intensity) float64 {
	tf := float64(p.TauFlop)
	bt := p.TimeBalance().Ratio()
	iv := i.Ratio()
	capTerm := 0.0
	if dyn := float64(p.EpsFlop) + float64(p.EpsMem)/iv; dyn > 0 {
		capTerm = dyn / p.DeltaPi.Watts() / tf // (pi_flop/DeltaPi)(1+B_eps/I) when eps_flop>0
	}
	return tf * math.Max(1, math.Max(bt/iv, capTerm))
}

// refEnergyPerFlopAt is E/W at intensity I from eq. (2):
//
//	E/W = eps_flop (1 + B_eps/I) + pi_1 T/W
func refEnergyPerFlopAt(p model.Params, i units.Intensity) units.EnergyPerFlop {
	if i <= 0 {
		return units.EnergyPerFlop(math.Inf(1))
	}
	dyn := float64(p.EpsFlop) + float64(p.EpsMem)/i.Ratio()
	return units.EnergyPerFlop(dyn + p.Pi1.Watts()*refTimePerFlopAt(p, i))
}

// refFlopsPerJouleAt is the energy efficiency W/E at intensity I.
func refFlopsPerJouleAt(p model.Params, i units.Intensity) units.FlopsPerJoule {
	e := float64(refEnergyPerFlopAt(p, i))
	if e <= 0 || math.IsInf(e, 1) {
		return 0
	}
	return units.FlopsPerJoule(1 / e)
}

// refAvgPowerAt evaluates the closed-form eq. (7) at intensity I.
func refAvgPowerAt(p model.Params, i units.Intensity) units.Power {
	if i <= 0 {
		return units.Power(math.NaN())
	}
	pi1 := p.Pi1.Watts()
	pf := p.PiFlop().Watts()
	pm := p.PiMem().Watts()
	bt := p.TimeBalance().Ratio()
	iv := i.Ratio()
	switch {
	case iv >= p.TimeBalancePlus().Ratio():
		return units.Power(pi1 + pf + pm*bt/iv)
	case iv <= p.TimeBalanceMinus().Ratio():
		return units.Power(pi1 + pf*iv/bt + pm)
	default:
		return units.Power(pi1 + p.DeltaPi.Watts())
	}
}

// refRegimeAt classifies intensity i against the machine's cap interval
// [B_tau^-, B_tau^+].
func refRegimeAt(p model.Params, i units.Intensity) model.Regime {
	iv := i.Ratio()
	if math.IsNaN(iv) {
		return model.CapBound
	}
	if p.Powerful() {
		if iv < p.TimeBalance().Ratio() {
			return model.MemoryBound
		}
		return model.ComputeBound
	}
	switch {
	case iv >= p.TimeBalancePlus().Ratio():
		return model.ComputeBound
	case iv <= p.TimeBalanceMinus().Ratio():
		return model.MemoryBound
	default:
		return model.CapBound
	}
}

// refThrottleFactor is the capped model's time over the uncapped
// model's time for the unit-flop workload at intensity i.
func refThrottleFactor(p model.Params, i units.Intensity) float64 {
	if i <= 0 {
		return 1
	}
	w := units.Flops(1)
	q := units.Intensity(i).Bytes(w)
	tu := p.TimeUncapped(w, q).Seconds()
	tc := p.Time(w, q).Seconds()
	if tu <= 0 {
		return 1
	}
	return tc / tu
}

// refValueAt evaluates metric m for machine p at intensity i.
func refValueAt(p model.Params, m model.Metric, i units.Intensity) float64 {
	switch m {
	case model.MetricFlopRate:
		return float64(refFlopRateAt(p, i))
	case model.MetricFlopsPerJoule:
		return float64(refFlopsPerJouleAt(p, i))
	case model.MetricAvgPower:
		return refAvgPowerAt(p, i).Watts()
	default:
		return math.NaN()
	}
}
