// Package model implements the paper's first-principles model of
// algorithmic time, energy, and power (Choi, Dukhan, Liu, Vuduc; IPDPS
// 2014), equations (1)-(7).
//
// The abstract machine is a processor attached to a fast memory of finite
// capacity and an infinite slow memory. An abstract algorithm executes W
// flops and moves Q bytes between slow and fast memory. The machine is
// described by four fundamental throughput costs — time per flop
// (tau_flop), time per byte (tau_mem), energy per flop (eps_flop), energy
// per byte (eps_mem) — plus a constant power pi_1 drawn regardless of
// activity and, new in this paper, a usable-power cap DeltaPi limiting the
// additional power available to execute operations.
//
// Two model variants are provided. The uncapped model is the authors'
// prior IPDPS 2013 "energy roofline": T = max(W tau_flop, Q tau_mem). The
// capped model adds the third term of eq. (3): when the power needed to
// run flops and memory at full rate exceeds DeltaPi, all operations
// throttle so that dynamic power stays at the cap.
package model

import (
	"errors"
	"fmt"
	"math"

	"archline/internal/units"
)

// Params are the fundamental machine parameters of section III.
type Params struct {
	TauFlop units.TimePerFlop   // time per flop at peak throughput (s/flop)
	TauMem  units.TimePerByte   // time per byte at peak bandwidth (s/B)
	EpsFlop units.EnergyPerFlop // energy per flop (J/flop)
	EpsMem  units.EnergyPerByte // energy per byte (J/B)
	Pi1     units.Power         // constant power, drawn regardless of load (W)
	DeltaPi units.Power         // usable power above Pi1 for operations (W)
}

// Validate reports whether the parameters describe a physically sensible
// machine: strictly positive throughput costs, non-negative energies and
// powers, and no NaNs.
func (p Params) Validate() error {
	check := func(name string, v float64, strictlyPositive bool) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("model: %s is not finite (%v)", name, v)
		}
		if strictlyPositive && v <= 0 {
			return fmt.Errorf("model: %s must be > 0, got %v", name, v)
		}
		if !strictlyPositive && v < 0 {
			return fmt.Errorf("model: %s must be >= 0, got %v", name, v)
		}
		return nil
	}
	if err := check("tau_flop", float64(p.TauFlop), true); err != nil {
		return err
	}
	if err := check("tau_mem", float64(p.TauMem), true); err != nil {
		return err
	}
	if err := check("eps_flop", float64(p.EpsFlop), false); err != nil {
		return err
	}
	if err := check("eps_mem", float64(p.EpsMem), false); err != nil {
		return err
	}
	if err := check("pi_1", p.Pi1.Watts(), false); err != nil {
		return err
	}
	return check("delta_pi", p.DeltaPi.Watts(), false)
}

// PeakFlopRate is the machine's peak computational throughput 1/tau_flop.
func (p Params) PeakFlopRate() units.FlopRate { return p.TauFlop.Inverse() }

// PeakByteRate is the machine's peak memory bandwidth 1/tau_mem.
func (p Params) PeakByteRate() units.ByteRate { return p.TauMem.Inverse() }

// PiFlop is the power pi_flop = eps_flop/tau_flop drawn when executing
// flops at peak rate.
func (p Params) PiFlop() units.Power { return units.PowerPerFlop(p.EpsFlop, p.TauFlop) }

// PiMem is the power pi_mem = eps_mem/tau_mem drawn when streaming memory
// at peak bandwidth.
func (p Params) PiMem() units.Power { return units.PowerPerByte(p.EpsMem, p.TauMem) }

// TimeBalance is B_tau = tau_mem/tau_flop, the machine's intrinsic
// flop:Byte ratio: the intensity at which flop time equals memory time.
func (p Params) TimeBalance() units.Intensity {
	return units.Intensity(float64(p.TauMem) / float64(p.TauFlop))
}

// EnergyBalance is B_eps = eps_mem/eps_flop, the energy analogue of
// TimeBalance.
func (p Params) EnergyBalance() units.Intensity {
	if p.EpsFlop == 0 {
		return units.Intensity(math.Inf(1))
	}
	return units.Intensity(float64(p.EpsMem) / float64(p.EpsFlop))
}

// Powerful reports whether the cap never binds: DeltaPi >= pi_flop +
// pi_mem, i.e. there is enough usable power to run flops and memory at
// their peak rates simultaneously.
func (p Params) Powerful() bool {
	return p.DeltaPi.Watts() >= p.PiFlop().Watts()+p.PiMem().Watts()
}

// TimeBalancePlus is B_tau^+ of eq. (5): the upper edge of the cap-bound
// intensity interval. When DeltaPi <= pi_flop even a pure-flop workload is
// capped and the compute-bound regime never applies, so the result is
// +Inf.
func (p Params) TimeBalancePlus() units.Intensity {
	return units.Intensity(timeBalancePlus(p.TimeBalance().Ratio(),
		p.PiFlop().Watts(), p.PiMem().Watts(), p.DeltaPi.Watts()))
}

// timeBalancePlus is eq. (5) on raw B_tau, pi_flop, pi_mem, and DeltaPi,
// shared with NewKernel so it derives those once.
func timeBalancePlus(bt, pf, pm, dp float64) float64 {
	headroom := dp - pf
	if headroom <= 0 {
		return math.Inf(1)
	}
	return bt * math.Max(1, pm/headroom)
}

// TimeBalanceMinus is B_tau^- of eq. (6): the lower edge of the cap-bound
// intensity interval, clamped at zero (when DeltaPi <= pi_mem even a
// pure-streaming workload is capped and the memory-bound regime never
// applies).
func (p Params) TimeBalanceMinus() units.Intensity {
	return units.Intensity(timeBalanceMinus(p.TimeBalance().Ratio(),
		p.PiFlop().Watts(), p.PiMem().Watts(), p.DeltaPi.Watts()))
}

// timeBalanceMinus is eq. (6) on raw B_tau, pi_flop, pi_mem, and
// DeltaPi, shared with NewKernel.
func timeBalanceMinus(bt, pf, pm, dp float64) float64 {
	headroom := dp - pm
	if headroom <= 0 {
		return 0
	}
	if pf == 0 {
		return bt
	}
	return bt * math.Min(1, headroom/pf)
}

// Time is the capped best-case execution time of eq. (3):
//
//	T(W,Q) = max( W tau_flop, Q tau_mem, (W eps_flop + Q eps_mem)/DeltaPi )
//
// assuming maximal overlap of flops and memory movement, throttled when
// the dynamic power would exceed DeltaPi. A zero DeltaPi with nonzero
// dynamic energy yields +Inf: the machine has no power to run anything.
func (p Params) Time(w units.Flops, q units.Bytes) units.Time {
	tFlop := w.Count() * float64(p.TauFlop)
	tMem := q.Count() * float64(p.TauMem)
	dynamic := w.Count()*float64(p.EpsFlop) + q.Count()*float64(p.EpsMem)
	tCap := 0.0
	if dynamic > 0 {
		tCap = dynamic / p.DeltaPi.Watts() // +Inf when DeltaPi == 0
	}
	return units.Time(math.Max(tFlop, math.Max(tMem, tCap)))
}

// TimeUncapped is the prior model's execution time, max(W tau_flop,
// Q tau_mem), with no power cap.
func (p Params) TimeUncapped(w units.Flops, q units.Bytes) units.Time {
	return units.Time(math.Max(w.Count()*float64(p.TauFlop), q.Count()*float64(p.TauMem)))
}

// Energy is the total energy of eq. (1): E = W eps_flop + Q eps_mem +
// pi_1 T(W,Q), with T the capped time.
func (p Params) Energy(w units.Flops, q units.Bytes) units.Energy {
	return p.energyWith(w, q, p.Time(w, q))
}

// EnergyUncapped is eq. (1) evaluated with the uncapped time model.
func (p Params) EnergyUncapped(w units.Flops, q units.Bytes) units.Energy {
	return p.energyWith(w, q, p.TimeUncapped(w, q))
}

func (p Params) energyWith(w units.Flops, q units.Bytes, t units.Time) units.Energy {
	return units.Energy(w.Count()*float64(p.EpsFlop) +
		q.Count()*float64(p.EpsMem) +
		p.Pi1.Watts()*t.Seconds())
}

// AvgPower is the average instantaneous power E/T for a concrete (W, Q)
// workload under the capped model.
func (p Params) AvgPower(w units.Flops, q units.Bytes) units.Power {
	return p.Energy(w, q).Over(p.Time(w, q))
}

// AvgPowerAt evaluates the closed-form eq. (7) at intensity I (see
// Kernel.AvgPowerAt). It equals AvgPower(W, W/I) for any W > 0.
func (p Params) AvgPowerAt(i units.Intensity) units.Power {
	k := NewKernel(p)
	return units.Power(k.AvgPowerAt(i.Ratio()))
}

// PeakAvgPower is the maximum of eq. (7) over intensity: pi_1 + pi_flop +
// pi_mem when the cap never binds (attained at I = B_tau), else pi_1 +
// DeltaPi.
func (p Params) PeakAvgPower() units.Power {
	dyn := math.Min(p.DeltaPi.Watts(), p.PiFlop().Watts()+p.PiMem().Watts())
	return units.Power(p.Pi1.Watts() + dyn)
}

// FlopRateAt is the achieved computational throughput W/T at intensity I
// from eq. (4), the quantity plotted in fig. 1 (left panel) and fig. 7a.
func (p Params) FlopRateAt(i units.Intensity) units.FlopRate {
	k := NewKernel(p)
	return units.FlopRate(k.FlopRateAt(i.Ratio()))
}

// FlopRateAtUncapped is the uncapped model's throughput at intensity I.
func (p Params) FlopRateAtUncapped(i units.Intensity) units.FlopRate {
	k := NewKernel(p)
	return units.FlopRate(k.FlopRateAtUncapped(i.Ratio()))
}

// EnergyPerFlopAt is E/W at intensity I from eq. (2).
func (p Params) EnergyPerFlopAt(i units.Intensity) units.EnergyPerFlop {
	k := NewKernel(p)
	return units.EnergyPerFlop(k.EnergyPerFlopAt(i.Ratio()))
}

// FlopsPerJouleAt is the energy efficiency W/E at intensity I, the
// quantity plotted in fig. 1 (middle panel) and fig. 7b.
func (p Params) FlopsPerJouleAt(i units.Intensity) units.FlopsPerJoule {
	k := NewKernel(p)
	return units.FlopsPerJoule(k.FlopsPerJouleAt(i.Ratio()))
}

// PeakFlopsPerJoule is the asymptotic (I -> inf) energy efficiency:
// 1/(eps_flop + pi_1 * max(tau_flop, eps_flop/DeltaPi)). This is the
// "16 Gflop/J" figure the paper quotes per platform in fig. 5's panel
// headers.
func (p Params) PeakFlopsPerJoule() units.FlopsPerJoule {
	tpf := float64(p.TauFlop)
	if p.DeltaPi.Watts() > 0 {
		tpf = math.Max(tpf, float64(p.EpsFlop)/p.DeltaPi.Watts())
	} else if p.EpsFlop > 0 {
		return 0
	}
	e := float64(p.EpsFlop) + p.Pi1.Watts()*tpf
	if e <= 0 {
		return units.FlopsPerJoule(math.Inf(1))
	}
	return units.FlopsPerJoule(1 / e)
}

// PeakBytesPerJoule is the asymptotic (I -> 0) memory energy efficiency:
// 1/(eps_mem + pi_1 * max(tau_mem, eps_mem/DeltaPi)). This is the
// "1.3 GB/J" figure of fig. 5's panel headers, and the quantity behind
// the section V-B streaming-energy inversion example.
func (p Params) PeakBytesPerJoule() units.BytesPerJoule {
	tpb := float64(p.TauMem)
	if p.DeltaPi.Watts() > 0 {
		tpb = math.Max(tpb, float64(p.EpsMem)/p.DeltaPi.Watts())
	} else if p.EpsMem > 0 {
		return 0
	}
	e := float64(p.EpsMem) + p.Pi1.Watts()*tpb
	if e <= 0 {
		return units.BytesPerJoule(math.Inf(1))
	}
	return units.BytesPerJoule(1 / e)
}

// StreamEnergyPerByte is the total cost of streaming one byte including
// the constant-power charge: eps_mem + pi_1 * max(tau_mem,
// eps_mem/DeltaPi). Section V-B uses this to show the Arndale GPU
// (671 pJ/B) beating the Xeon Phi (1.13 nJ/B) despite the Phi's lower
// eps_mem.
func (p Params) StreamEnergyPerByte() units.EnergyPerByte {
	tpb := float64(p.TauMem)
	if p.DeltaPi.Watts() > 0 {
		tpb = math.Max(tpb, float64(p.EpsMem)/p.DeltaPi.Watts())
	}
	return units.EnergyPerByte(float64(p.EpsMem) + p.Pi1.Watts()*tpb)
}

// WithCap returns a copy of p with the usable power cap scaled by frac,
// the operation behind the paper's DeltaPi/k throttling scenarios
// (figs. 6-7). frac must be non-negative.
func (p Params) WithCap(frac float64) (Params, error) {
	if frac < 0 || math.IsNaN(frac) {
		return Params{}, errors.New("model: cap fraction must be >= 0")
	}
	q := p
	q.DeltaPi = units.Power(p.DeltaPi.Watts() * frac)
	return q, nil
}

// Scale returns the parameters of a system built from k identical copies
// of this machine running the same workload in perfect weak scaling:
// aggregate throughput and bandwidth scale by k (tau/k), per-operation
// energies are unchanged, and both constant power and usable power scale
// by k. This is the paper's "47 x Arndale GPU" construction. k must be
// positive.
func (p Params) Scale(k float64) (Params, error) {
	if k <= 0 || math.IsNaN(k) || math.IsInf(k, 0) {
		return Params{}, errors.New("model: scale factor must be positive and finite")
	}
	return Params{
		TauFlop: units.TimePerFlop(float64(p.TauFlop) / k),
		TauMem:  units.TimePerByte(float64(p.TauMem) / k),
		EpsFlop: p.EpsFlop,
		EpsMem:  p.EpsMem,
		Pi1:     units.Power(p.Pi1.Watts() * k),
		DeltaPi: units.Power(p.DeltaPi.Watts() * k),
	}, nil
}

// Prediction bundles the model outputs for one (W, Q) workload.
type Prediction struct {
	W        units.Flops
	Q        units.Bytes
	I        units.Intensity
	Time     units.Time
	Energy   units.Energy
	AvgPower units.Power
	Regime   Regime
}

// Predict evaluates the capped model for a concrete workload.
func (p Params) Predict(w units.Flops, q units.Bytes) Prediction {
	t := p.Time(w, q)
	e := p.energyWith(w, q, t)
	i := w.Intensity(q)
	return Prediction{
		W: w, Q: q, I: i,
		Time:     t,
		Energy:   e,
		AvgPower: e.Over(t),
		Regime:   p.RegimeAt(i),
	}
}
