package scenario

import (
	"errors"

	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/units"
)

// This file studies the question the paper's conclusions pose to
// "device designers, architects, and system integrators": constant power
// pi_1 "accounts for more than 50% of observed power on 7 of the 12
// evaluation platforms ... To what extent can pi_1 be reduced, perhaps
// by more tightly integrating non-processor and non-memory components?"
// Pi1Reduction answers the what-if side: how much peak energy efficiency
// and power reconfigurability each platform gains as pi_1 shrinks.

// Pi1Point is one platform at one pi_1 reduction factor.
type Pi1Point struct {
	Factor float64 // pi_1 multiplier (1, 1/2, 1/4, 0)
	// PeakFlopsPerJoule at the reduced pi_1.
	PeakFlopsPerJoule units.FlopsPerJoule
	// EffGain relative to the unmodified platform.
	EffGain float64
	// ReconfigRange is the max/min ratio of eq. (7) over intensity: the
	// within-platform power range the paper finds limited to < 2x; lower
	// pi_1 widens it ("driving down pi_1 would be the key factor for
	// improving overall system power reconfigurability").
	ReconfigRange float64
}

// Pi1Study is one platform's reduction sweep.
type Pi1Study struct {
	Platform *machine.Platform
	Points   []Pi1Point
}

// Pi1Reduction sweeps pi_1 x {1, 1/2, 1/4, 0} on each platform over the
// given intensity range.
func Pi1Reduction(platforms []*machine.Platform, lo, hi units.Intensity) ([]Pi1Study, error) {
	if len(platforms) == 0 {
		return nil, errors.New("scenario: no platforms")
	}
	grid := model.LogSpace(lo, hi, 96)
	if grid == nil {
		return nil, errors.New("scenario: bad intensity range")
	}
	factors := []float64{1, 0.5, 0.25, 0}
	var out []Pi1Study
	for _, plat := range platforms {
		study := Pi1Study{Platform: plat}
		base := float64(plat.Single.PeakFlopsPerJoule())
		for _, f := range factors {
			p := plat.Single
			p.Pi1 = units.Power(p.Pi1.Watts() * f)
			minP, maxP := 0.0, 0.0
			kern := model.NewKernel(p)
			for k, i := range grid {
				v := kern.AvgPowerAt(i.Ratio())
				if k == 0 || v < minP {
					minP = v
				}
				if k == 0 || v > maxP {
					maxP = v
				}
			}
			rangeRatio := maxP / minP
			if minP == 0 {
				rangeRatio = 0
			}
			study.Points = append(study.Points, Pi1Point{
				Factor:            f,
				PeakFlopsPerJoule: p.PeakFlopsPerJoule(),
				EffGain:           float64(p.PeakFlopsPerJoule()) / base,
				ReconfigRange:     rangeRatio,
			})
		}
		out = append(out, study)
	}
	return out, nil
}

// CapPareto traces the time-energy trade-off of throttling: for a
// workload at intensity i, each cap setting yields a (time, energy) pair
// per flop; the curve is the Pareto frontier power bounding navigates.
// It also reports the cap minimizing the energy-delay product.
type CapPareto struct {
	I      units.Intensity
	Points []CapParetoPoint
	// EDPOptimalFrac is the cap fraction minimizing E*T per flop.
	EDPOptimalFrac float64
}

// CapParetoPoint is one cap setting's cost per flop.
type CapParetoPoint struct {
	Frac          float64
	TimePerFlop   float64 // seconds per flop
	EnergyPerFlop float64 // joules per flop
}

// ParetoCap sweeps cap fractions over (0, 1] for a machine at intensity
// i. n controls the sweep resolution.
func ParetoCap(p model.Params, i units.Intensity, n int) (*CapPareto, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if i <= 0 {
		return nil, errors.New("scenario: intensity must be positive")
	}
	if n < 2 {
		return nil, errors.New("scenario: need at least 2 sweep points")
	}
	out := &CapPareto{I: i}
	bestEDP := 0.0
	for k := 1; k <= n; k++ {
		frac := float64(k) / float64(n)
		capped, err := p.WithCap(frac)
		if err != nil {
			return nil, err
		}
		rate := capped.FlopRateAt(i).FlopsPerSec()
		if rate <= 0 {
			continue
		}
		t := 1 / rate
		e := capped.EnergyPerFlopAt(i).JoulesPerFlop()
		out.Points = append(out.Points, CapParetoPoint{Frac: frac, TimePerFlop: t, EnergyPerFlop: e})
		if edp := e * t; bestEDP == 0 || edp < bestEDP {
			bestEDP = edp
			out.EDPOptimalFrac = frac
		}
	}
	if len(out.Points) == 0 {
		return nil, errors.New("scenario: no feasible cap settings")
	}
	return out, nil
}
