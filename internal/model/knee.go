package model

import (
	"errors"
	"math"

	"archline/internal/units"
)

// This file locates "knees" on the rooflines: the minimum operational
// intensity an algorithm needs before a machine delivers a target
// fraction of its best performance or energy efficiency. Algorithm
// designers read the paper's figures exactly this way ("what intensity
// do I need before the Titan is worth it?"); these helpers answer it in
// closed form via bisection on the monotone model curves.

// RequiredIntensityForRate returns the smallest intensity at which the
// machine reaches frac (0 < frac <= 1) of its cap-limited peak flop
// rate. The flop-rate curve of eq. (4) is non-decreasing in intensity,
// so the answer is unique; an error is returned when even I -> inf falls
// short (cannot happen for frac <= 1 up to rounding).
func (p Params) RequiredIntensityForRate(frac float64) (units.Intensity, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if frac <= 0 || frac > 1 {
		return 0, errors.New("model: fraction must be in (0, 1]")
	}
	k := NewKernel(p)
	// Peak achievable rate: eq. (4) as I -> inf.
	peak := k.FlopRateAt(math.Inf(1))
	if peak <= 0 {
		return 0, errors.New("model: machine has no peak rate")
	}
	target := frac * peak
	f := func(i float64) bool { return k.FlopRateAt(i) >= target*(1-1e-12) }
	return bisectIntensity(f)
}

// RequiredIntensityForEfficiency returns the smallest intensity at which
// the machine reaches frac of its asymptotic peak flop/J. The
// energy-efficiency curve of eq. (2) is non-decreasing in intensity.
func (p Params) RequiredIntensityForEfficiency(frac float64) (units.Intensity, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if frac <= 0 || frac > 1 {
		return 0, errors.New("model: fraction must be in (0, 1]")
	}
	peak := float64(p.PeakFlopsPerJoule())
	if peak <= 0 || math.IsInf(peak, 0) {
		return 0, errors.New("model: machine has no finite peak efficiency")
	}
	k := NewKernel(p)
	target := frac * peak
	f := func(i float64) bool { return k.FlopsPerJouleAt(i) >= target*(1-1e-12) }
	return bisectIntensity(f)
}

// bisectIntensity finds the smallest intensity satisfying the monotone
// predicate f over a log grid from 2^-20 to 2^40.
func bisectIntensity(f func(float64) bool) (units.Intensity, error) {
	lo, hi := math.Ldexp(1, -20), math.Ldexp(1, 40)
	if f(lo) {
		return units.Intensity(lo), nil
	}
	if !f(hi) {
		return 0, errors.New("model: target unreachable at any intensity")
	}
	llo, lhi := math.Log(lo), math.Log(hi)
	for iter := 0; iter < 200 && lhi-llo > 1e-12; iter++ {
		mid := (llo + lhi) / 2
		if f(math.Exp(mid)) {
			lhi = mid
		} else {
			llo = mid
		}
	}
	return units.Intensity(math.Exp(lhi)), nil
}
