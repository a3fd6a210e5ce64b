// Package scenario implements the paper's analyses and what-if studies on
// top of the capped model: the building-block comparison of fig. 1 and
// section I, the power-throttling sweeps of figs. 6-7 (section V-D), the
// streaming-energy ranking of section V-B, the constant-power statistics
// of section V-C, and the power-bounding construction of section V-D.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/stats"
	"archline/internal/units"
)

// MetricPoint is one metric sample on an intensity grid.
type MetricPoint struct {
	I     units.Intensity
	Value float64
}

// Series is a named curve over intensity.
type Series struct {
	Name   string
	Points []MetricPoint
}

// SweepMetric evaluates a metric for a machine over a grid.
func SweepMetric(name string, p model.Params, m model.Metric, grid []units.Intensity) Series {
	k := model.NewKernel(p)
	return sweepKernel(make([]MetricPoint, 0, len(grid)), name, &k, m, grid)
}

// SweepMetricInto is SweepMetric evaluating into dst's backing array
// (append semantics: dst is truncated, filled, and returned inside the
// Series). The caller owns dst and may hand the same buffer back on
// the next sweep — at which point the previous Series' points are
// overwritten, so retain at most one sweep per buffer.
func SweepMetricInto(dst []MetricPoint, name string, p model.Params, m model.Metric, grid []units.Intensity) Series {
	k := model.NewKernel(p)
	return sweepKernel(dst[:0], name, &k, m, grid)
}

// sweepKernel appends one metric curve evaluated through a prebuilt
// coefficient table. Shared by the public sweeps and CompareBlocks,
// which reuses one kernel across its three metrics per machine.
func sweepKernel(dst []MetricPoint, name string, k *model.Kernel, m model.Metric, grid []units.Intensity) Series {
	for _, i := range grid {
		dst = append(dst, MetricPoint{I: i, Value: k.MetricAt(m, i.Ratio())})
	}
	return Series{Name: name, Points: dst}
}

// BlockComparison is the fig. 1 analysis: a big building block (A)
// against a small one (B) plus the power-matched aggregate of ks copies
// of B.
type BlockComparison struct {
	AName, BName string
	A, B         model.Params
	AggCount     int          // copies of B matching A's peak power ("47 x Arndale GPU")
	Agg          model.Params // the aggregate machine
	Grid         []units.Intensity

	// Per-metric curves: [A, B, Agg] for each of flop/time, flop/energy,
	// power.
	Perf, Eff, Power [3]Series

	// EnergyCrossover is the intensity where A and B tie on flop/J
	// (paper: "the two systems match in flops per Joule for intensities
	// as high as 4 flop:Byte"); zero when none exists in the grid range.
	EnergyCrossover units.Intensity
	// AggPerfCrossover is where the aggregate stops beating A on flop/s
	// (paper: about 4 flop:Byte); zero when none.
	AggPerfCrossover units.Intensity
	// MaxAggSpeedup is the aggregate's best flop/s advantage over A on
	// the grid (paper: "up to 1.6x").
	MaxAggSpeedup float64
	// AggPeakFraction is the aggregate's peak flop/s relative to A's
	// (paper: "less than 1/2").
	AggPeakFraction float64
}

// CompareBlocks runs the fig. 1 analysis over [lo, hi] with n grid points.
func CompareBlocks(aName string, a model.Params, bName string, b model.Params,
	lo, hi units.Intensity, n int) (*BlockComparison, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: machine A: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: machine B: %w", err)
	}
	grid := model.LogSpace(lo, hi, n)
	if grid == nil {
		return nil, errors.New("scenario: bad intensity grid")
	}
	ks, err := model.PowerMatch(a, b)
	if err != nil {
		return nil, err
	}
	agg, err := b.Scale(float64(ks))
	if err != nil {
		return nil, err
	}
	bc := &BlockComparison{
		AName: aName, BName: bName,
		A: a, B: b, AggCount: ks, Agg: agg, Grid: grid,
	}
	aggName := fmt.Sprintf("%dx %s", ks, bName)
	machines := []struct {
		name string
		p    model.Params
	}{{aName, a}, {bName, b}, {aggName, agg}}
	// All nine curves share one flat backing array (capacity is exact,
	// so the sub-slices below never move), and each machine's three
	// metrics share one coefficient table.
	flat := make([]MetricPoint, 0, 9*len(grid))
	sweep := func(name string, k *model.Kernel, m model.Metric) Series {
		base := len(flat)
		s := sweepKernel(flat, name, k, m, grid)
		flat = s.Points
		s.Points = flat[base:len(flat):len(flat)]
		return s
	}
	for mi, mm := range machines {
		k := model.NewKernel(mm.p)
		bc.Perf[mi] = sweep(mm.name, &k, model.MetricFlopRate)
		bc.Eff[mi] = sweep(mm.name, &k, model.MetricFlopsPerJoule)
		bc.Power[mi] = sweep(mm.name, &k, model.MetricAvgPower)
	}
	// One shared refinement grid for both crossover scans: 4x the sweep
	// resolution, built once instead of once per metric pair.
	fine := model.LogSpace(lo, hi, 4*n)
	if xs := model.CrossoversOnGrid(a, b, model.MetricFlopsPerJoule, fine); len(xs) > 0 {
		bc.EnergyCrossover = xs[len(xs)-1]
	}
	if xs := model.CrossoversOnGrid(agg, a, model.MetricFlopRate, fine); len(xs) > 0 {
		bc.AggPerfCrossover = xs[len(xs)-1]
	}
	for k := range grid {
		if r := bc.Perf[2].Points[k].Value / bc.Perf[0].Points[k].Value; r > bc.MaxAggSpeedup {
			bc.MaxAggSpeedup = r
		}
	}
	bc.AggPeakFraction = float64(agg.PeakFlopRate()) / float64(a.PeakFlopRate())
	return bc, nil
}

// ThrottlePoint is one intensity sample of a throttled machine.
type ThrottlePoint struct {
	I      units.Intensity
	Power  units.Power         // eq. (7) under the reduced cap
	Perf   units.FlopRate      // eq. (4) under the reduced cap
	Eff    units.FlopsPerJoule // eq. (2) under the reduced cap
	Regime model.Regime        // the F/C/M annotation of fig. 6
}

// ThrottleCurve is a machine swept at one cap setting.
type ThrottleCurve struct {
	Frac   float64 // cap fraction: 1, 1/2, 1/4, 1/8 in figs. 6-7
	Params model.Params
	Points []ThrottlePoint
}

// ThrottleSweep evaluates the machine at each cap fraction over the grid,
// reproducing the data behind figs. 6, 7a, and 7b.
func ThrottleSweep(p model.Params, fracs []float64, grid []units.Intensity) ([]ThrottleCurve, error) {
	return ThrottleSweepInto(nil, p, fracs, grid)
}

// ThrottleSweepInto is ThrottleSweep evaluating every curve into buf's
// backing array (len(fracs)*len(grid) entries; grown once when short).
// The caller owns buf: handing the same buffer to a later sweep
// overwrites the earlier curves' points, so retain at most one sweep
// per buffer. One coefficient table is built per cap setting — the
// per-point loop is pure table arithmetic.
func ThrottleSweepInto(buf []ThrottlePoint, p model.Params, fracs []float64, grid []units.Intensity) ([]ThrottleCurve, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(fracs) == 0 || len(grid) == 0 {
		return nil, errors.New("scenario: need cap fractions and an intensity grid")
	}
	if need := len(fracs) * len(grid); cap(buf) < need {
		buf = make([]ThrottlePoint, 0, need)
	}
	buf = buf[:0]
	curves := make([]ThrottleCurve, 0, len(fracs))
	for _, f := range fracs {
		capped, err := p.WithCap(f)
		if err != nil {
			return nil, err
		}
		k := model.NewKernel(capped)
		base := len(buf)
		for _, i := range grid {
			iv := i.Ratio()
			buf = append(buf, ThrottlePoint{
				I:      i,
				Power:  units.Power(k.AvgPowerAt(iv)),
				Perf:   units.FlopRate(k.FlopRateAt(iv)),
				Eff:    units.FlopsPerJoule(k.FlopsPerJouleAt(iv)),
				Regime: k.RegimeAt(iv),
			})
		}
		curves = append(curves, ThrottleCurve{Frac: f, Params: capped, Points: buf[base:len(buf):len(buf)]})
	}
	return curves, nil
}

// PowerReduction reports how much a cap reduction actually lowers
// worst-case system power: reducing DeltaPi by k reduces total power by
// less than k because pi_1 stays (section V-D observation i).
func PowerReduction(p model.Params, frac float64) (float64, error) {
	capped, err := p.WithCap(frac)
	if err != nil {
		return 0, err
	}
	orig := p.PeakAvgPower().Watts()
	if orig <= 0 {
		return 0, errors.New("scenario: machine has no peak power")
	}
	return capped.PeakAvgPower().Watts() / orig, nil
}

// StreamCost is a platform's total cost of streaming one byte, section
// V-B's worked example.
type StreamCost struct {
	ID          machine.ID
	Name        string
	EpsMem      units.EnergyPerByte // the raw fitted eps_mem
	ConstCharge units.EnergyPerByte // pi_1 * max(tau_mem, eps_mem/DeltaPi)
	Total       units.EnergyPerByte // StreamEnergyPerByte
}

// StreamingEnergyRanking ranks platforms by total streaming energy per
// byte, ascending. Section V-B's point: the ranking by Total inverts the
// ranking by raw EpsMem (Arndale GPU < GTX Titan < Xeon Phi).
func StreamingEnergyRanking(platforms []*machine.Platform) []StreamCost {
	out := make([]StreamCost, 0, len(platforms))
	for _, p := range platforms {
		total := p.Single.StreamEnergyPerByte()
		out = append(out, StreamCost{
			ID:          p.ID,
			Name:        p.Name,
			EpsMem:      p.Single.EpsMem,
			ConstCharge: units.EnergyPerByte(float64(total) - float64(p.Single.EpsMem)),
			Total:       total,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total < out[j].Total })
	return out
}

// ConstantPowerStats summarises section V-C's constant-power analysis.
type ConstantPowerStats struct {
	// Shares maps platform to pi_1/(pi_1 + DeltaPi).
	Shares map[machine.ID]float64
	// OverHalf counts platforms whose constant power exceeds 50% of
	// maximum power (the paper: 7 of 12).
	OverHalf int
	// Correlation is the Pearson correlation between the share and peak
	// energy-efficiency (the paper: about -0.6).
	Correlation float64
	// PowerRange maps platform to max/min of eq. (7) over the sweep
	// range, the "less than 2x" within-platform spread.
	PowerRange map[machine.ID]float64
}

// ConstantPowerAnalysis computes section V-C's statistics over a platform
// set, sweeping [lo, hi] for the within-platform power range.
func ConstantPowerAnalysis(platforms []*machine.Platform, lo, hi units.Intensity) (*ConstantPowerStats, error) {
	if len(platforms) < 2 {
		return nil, errors.New("scenario: need at least two platforms")
	}
	st := &ConstantPowerStats{
		Shares:     map[machine.ID]float64{},
		PowerRange: map[machine.ID]float64{},
	}
	var shares, eff []float64
	grid := model.LogSpace(lo, hi, 128)
	for _, p := range platforms {
		s := p.ConstantPowerShare()
		st.Shares[p.ID] = s
		if s > 0.5 {
			st.OverHalf++
		}
		shares = append(shares, s)
		eff = append(eff, float64(p.Single.PeakFlopsPerJoule()))

		minP, maxP := math.Inf(1), 0.0
		k := model.NewKernel(p.Single)
		for _, i := range grid {
			v := k.AvgPowerAt(i.Ratio())
			minP = math.Min(minP, v)
			maxP = math.Max(maxP, v)
		}
		st.PowerRange[p.ID] = maxP / minP
	}
	r, err := stats.Pearson(shares, eff)
	if err != nil {
		return nil, err
	}
	st.Correlation = r
	return st, nil
}

// PowerBoundResult is the section V-D construction: a big node throttled
// to a power budget versus an assembly of small nodes at the same budget.
type PowerBoundResult struct {
	Budget units.Power
	I      units.Intensity

	// CapFrac is the cap fraction that brings the big machine to the
	// budget (the paper's "DeltaPi/8" for a 140 W Titan).
	CapFrac float64
	// BigPerfRatio is the throttled big machine's performance at I
	// relative to its unthrottled self (paper: ~0.31x at I = 0.25).
	BigPerfRatio float64
	// SmallCount is the number of small machines matching the budget
	// (paper: 23 Arndale GPUs at 140 W), rounded to nearest.
	SmallCount int
	// SmallVsBig is the small assembly's performance at I relative to the
	// throttled big machine (paper: ~2.8x).
	SmallVsBig float64
}

// PowerBound evaluates the section V-D scenario.
func PowerBound(big, small model.Params, budget units.Power, i units.Intensity) (*PowerBoundResult, error) {
	if err := big.Validate(); err != nil {
		return nil, err
	}
	if err := small.Validate(); err != nil {
		return nil, err
	}
	if i <= 0 {
		return nil, errors.New("scenario: intensity must be positive")
	}
	if budget.Watts() <= big.Pi1.Watts() {
		return nil, fmt.Errorf("scenario: budget %v below the big machine's constant power %v",
			budget, big.Pi1)
	}
	frac := (budget.Watts() - big.Pi1.Watts()) / big.DeltaPi.Watts()
	if frac > 1 {
		frac = 1
	}
	capped, err := big.WithCap(frac)
	if err != nil {
		return nil, err
	}
	res := &PowerBoundResult{
		Budget:  budget,
		I:       i,
		CapFrac: frac,
	}
	res.BigPerfRatio = float64(capped.FlopRateAt(i)) / float64(big.FlopRateAt(i))

	peakSmall := small.PeakAvgPower().Watts()
	if peakSmall <= 0 {
		return nil, errors.New("scenario: small machine has no peak power")
	}
	k := int(math.Round(budget.Watts() / peakSmall))
	if k < 1 {
		return nil, errors.New("scenario: budget below one small machine")
	}
	res.SmallCount = k
	assembly, err := small.Scale(float64(k))
	if err != nil {
		return nil, err
	}
	bigRate := float64(capped.FlopRateAt(i))
	if bigRate <= 0 {
		return nil, errors.New("scenario: throttled big machine has no throughput")
	}
	res.SmallVsBig = float64(assembly.FlopRateAt(i)) / bigRate
	return res, nil
}
