package model

import (
	"errors"
	"math"

	"archline/internal/units"
)

// Metric selects which model output a crossover search compares.
type Metric int

// The comparable metrics.
const (
	MetricFlopRate      Metric = iota // W/T, time-efficiency (fig. 1 left)
	MetricFlopsPerJoule               // W/E, energy-efficiency (fig. 1 middle)
	MetricAvgPower                    // E/T (fig. 1 right)
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricFlopRate:
		return "flop/time"
	case MetricFlopsPerJoule:
		return "flop/energy"
	case MetricAvgPower:
		return "power"
	default:
		return "unknown"
	}
}

// MetricAt evaluates metric m at intensity i, for callers that sweep
// metrics generically (e.g. the fig. 1 renderer). Unknown metrics
// evaluate to NaN.
func (p Params) MetricAt(m Metric, i units.Intensity) float64 {
	k := NewKernel(p)
	return k.MetricAt(m, i.Ratio())
}

// ErrNoCrossover reports that two machines do not change relative order
// on the searched intensity interval.
var ErrNoCrossover = errors.New("model: no crossover in interval")

// Crossover finds an intensity in [lo, hi] at which machines a and b are
// equal on metric m, by bisection on the sign of log(a/b) over log-spaced
// intensities. It returns ErrNoCrossover when the sign of the difference
// is the same at both endpoints. The model's metric curves are monotone
// ratios of piecewise-hyperbolic functions, so within one ordering flip a
// bisection is exact.
func Crossover(a, b Params, m Metric, lo, hi units.Intensity) (units.Intensity, error) {
	ka, kb := NewKernel(a), NewKernel(b)
	return crossover(&ka, &kb, m, lo, hi)
}

// crossover is Crossover on prebuilt kernels, so a scan refining many
// flips builds each machine's kernel once.
func crossover(a, b *Kernel, m Metric, lo, hi units.Intensity) (units.Intensity, error) {
	if lo <= 0 || hi <= lo {
		return 0, errors.New("model: crossover interval must satisfy 0 < lo < hi")
	}
	f := func(logI float64) float64 {
		i := math.Exp(logI)
		va, vb := a.MetricAt(m, i), b.MetricAt(m, i)
		if va <= 0 || vb <= 0 {
			return math.NaN()
		}
		return math.Log(va / vb)
	}
	x0, x1 := math.Log(lo.Ratio()), math.Log(hi.Ratio())
	f0, f1 := f(x0), f(x1)
	if math.IsNaN(f0) || math.IsNaN(f1) {
		return 0, errors.New("model: metric not positive at interval endpoint")
	}
	if f0 == 0 {
		return lo, nil
	}
	if f1 == 0 {
		return hi, nil
	}
	if (f0 > 0) == (f1 > 0) {
		return 0, ErrNoCrossover
	}
	for iter := 0; iter < 200; iter++ {
		mid := (x0 + x1) / 2
		fm := f(mid)
		if fm == 0 || x1-x0 < 1e-12 {
			return units.Intensity(math.Exp(mid)), nil
		}
		if (fm > 0) == (f0 > 0) {
			x0, f0 = mid, fm
		} else {
			x1 = mid
		}
	}
	return units.Intensity(math.Exp((x0 + x1) / 2)), nil
}

// Crossovers scans [lo, hi] with n log-spaced probes and returns every
// ordering flip found (each refined by bisection). Metric curves of two
// machines can cross more than once when cap regimes interleave.
func Crossovers(a, b Params, m Metric, lo, hi units.Intensity, n int) []units.Intensity {
	if n < 2 || lo <= 0 || hi <= lo {
		return nil
	}
	return CrossoversOnGrid(a, b, m, LogSpace(lo, hi, n))
}

// CrossoversOnGrid is Crossovers over a caller-supplied probe grid
// (ascending intensities), so callers scanning several metric pairs
// over the same range build the grid once instead of once per pair.
func CrossoversOnGrid(a, b Params, m Metric, grid []units.Intensity) []units.Intensity {
	if len(grid) < 2 {
		return nil
	}
	ka, kb := NewKernel(a), NewKernel(b)
	var out []units.Intensity
	sign := func(i units.Intensity) int {
		va, vb := ka.MetricAt(m, i.Ratio()), kb.MetricAt(m, i.Ratio())
		switch {
		case va > vb:
			return 1
		case va < vb:
			return -1
		default:
			return 0
		}
	}
	prev := sign(grid[0])
	for k := 1; k < len(grid); k++ {
		cur := sign(grid[k])
		if cur != prev && prev != 0 && cur != 0 {
			if x, err := crossover(&ka, &kb, m, grid[k-1], grid[k]); err == nil {
				out = append(out, x)
			}
		}
		if cur != 0 {
			prev = cur
		}
	}
	return out
}

// LogSpace returns n intensities spaced uniformly in log scale over
// [lo, hi] inclusive. It is the grid every figure in the paper sweeps.
func LogSpace(lo, hi units.Intensity, n int) []units.Intensity {
	if n < 1 || lo <= 0 || hi < lo {
		return nil
	}
	if n == 1 {
		return []units.Intensity{lo}
	}
	out := make([]units.Intensity, n)
	l0, l1 := math.Log(lo.Ratio()), math.Log(hi.Ratio())
	for i := range out {
		frac := float64(i) / float64(n-1)
		out[i] = units.Intensity(math.Exp(l0 + frac*(l1-l0)))
	}
	return out
}

// PowerMatch returns the number of copies of machine "small" needed to
// match machine "big" in peak average power, the paper's construction of
// the hypothetical Arndale-GPU supercomputer ("assembling 47 of the
// mobile GPUs to match on peak power"). The count is rounded up.
func PowerMatch(big, small Params) (int, error) {
	ps := small.PeakAvgPower().Watts()
	if ps <= 0 {
		return 0, errors.New("model: small machine has no peak power")
	}
	k := big.PeakAvgPower().Watts() / ps
	if k < 1 {
		return 1, nil
	}
	return int(math.Ceil(k - 1e-9)), nil
}

// PowerMatchWatts returns the number of copies of machine small needed to
// reach a given power budget, rounded down so the assembly stays within
// the budget (the section V-D "23 Arndale GPUs match 140 Watts"
// construction). It returns at least 1 when even a single copy exceeds
// the budget is false; if one copy already exceeds the budget it returns
// 0 and an error.
func PowerMatchWatts(small Params, budget units.Power) (int, error) {
	ps := small.PeakAvgPower().Watts()
	if ps <= 0 {
		return 0, errors.New("model: machine has no peak power")
	}
	k := int(math.Floor(budget.Watts()/ps + 1e-9))
	if k < 1 {
		return 0, errors.New("model: one copy already exceeds the power budget")
	}
	return k, nil
}
