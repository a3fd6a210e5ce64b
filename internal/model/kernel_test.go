package model_test

import (
	"fmt"
	"math"
	"testing"

	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/units"
)

// kernelCases enumerates every Params value the bit-identity pin
// sweeps: all Table I platforms in both precisions, each under the
// figs. 6-7 cap schedule plus the degenerate zero cap, and one
// "uploaded" machine that exists in no built-in table (the fit-input
// shape a POST /v1/platforms upload carries).
func kernelCases(t *testing.T) map[string]model.Params {
	t.Helper()
	cases := map[string]model.Params{}
	for _, plat := range machine.All() {
		cases[string(plat.ID)+"/single"] = plat.Single
		if plat.SupportsDouble() {
			p, err := plat.DoubleParams()
			if err != nil {
				t.Fatalf("%s: %v", plat.ID, err)
			}
			cases[string(plat.ID)+"/double"] = p
		}
	}
	// An uploaded platform: Table I-shaped fit outputs, values that
	// match no built-in row.
	cases["uploaded/single"] = model.Params{
		TauFlop: 7.3e-12,
		TauMem:  1.9e-11,
		EpsFlop: 7.7e-10,
		EpsMem:  4.1e-9,
		Pi1:     33.5,
		DeltaPi: 71.25,
	}
	caps := map[string]float64{
		"cap-half": 0.5, "cap-quarter": 0.25, "cap-eighth": 0.125, "cap-zero": 0,
	}
	out := map[string]model.Params{}
	for name, p := range cases {
		out[name] = p
		for suffix, frac := range caps {
			capped, err := p.WithCap(frac)
			if err != nil {
				t.Fatal(err)
			}
			out[name+"/"+suffix] = capped
		}
	}
	return out
}

// kernelGrid is the intensity probe set: a dense log grid far wider
// than any figure sweeps, plus the boundary and invalid inputs every
// per-point method special-cases.
func kernelGrid() []float64 {
	grid := model.LogSpace(1e-4, 1e5, 1501)
	out := make([]float64, 0, len(grid)+4)
	out = append(out, 0, -1, -0.125, math.Inf(1))
	for _, i := range grid {
		out = append(out, i.Ratio())
	}
	return out
}

// TestKernelMatchesParamsBitwise is the evaluator's contract: every
// Kernel per-point method, and every Params method that fronts it, must
// reproduce the reference formulas (reference_test.go) bit for bit — not
// approximately — on every platform, both precisions, every cap
// setting, across the whole probe grid.
func TestKernelMatchesParamsBitwise(t *testing.T) {
	grid := kernelGrid()
	for name, p := range kernelCases(t) {
		k := model.NewKernel(p)
		for _, iv := range grid {
			if err := kernelDiff(p, &k, iv, false); err != "" {
				t.Fatalf("%s: %s", name, err)
			}
		}
		// NaN intensity exercises the regime classifier's explicit
		// NaN branch and eq. (7)'s fall-through arm.
		nan := math.NaN()
		if got, want := k.RegimeAt(nan), refRegimeAt(p, units.Intensity(nan)); got != want {
			t.Fatalf("%s: RegimeAt(NaN) = %v, reference gives %v", name, got, want)
		}
		if got, want := k.AvgPowerAt(nan), refAvgPowerAt(p, units.Intensity(nan)).Watts(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: AvgPowerAt(NaN) = %g, reference gives %g", name, got, want)
		}
	}
}

// kernelDiff compares every per-point output of k and of p's Params
// front end against the reference formulas at intensity iv, returning a
// description of the first divergence or "". Two values agree when
// their bits are equal or, with anyNaN, when both are NaN of any
// payload.
func kernelDiff(p model.Params, k *model.Kernel, iv float64, anyNaN bool) string {
	i := units.Intensity(iv)
	checks := []struct {
		what      string
		got, want float64
	}{
		{"FlopRateAt", k.FlopRateAt(iv), float64(refFlopRateAt(p, i))},
		{"FlopRateAtUncapped", k.FlopRateAtUncapped(iv), float64(refFlopRateAtUncapped(p, i))},
		{"EnergyPerFlopAt", k.EnergyPerFlopAt(iv), float64(refEnergyPerFlopAt(p, i))},
		{"FlopsPerJouleAt", k.FlopsPerJouleAt(iv), float64(refFlopsPerJouleAt(p, i))},
		{"AvgPowerAt", k.AvgPowerAt(iv), refAvgPowerAt(p, i).Watts()},
		{"ThrottleFactor", k.ThrottleFactor(iv), refThrottleFactor(p, i)},
		{"MetricAt(rate)", k.MetricAt(model.MetricFlopRate, iv), refValueAt(p, model.MetricFlopRate, i)},
		{"MetricAt(eff)", k.MetricAt(model.MetricFlopsPerJoule, iv), refValueAt(p, model.MetricFlopsPerJoule, i)},
		{"MetricAt(power)", k.MetricAt(model.MetricAvgPower, iv), refValueAt(p, model.MetricAvgPower, i)},
		{"MetricAt(unknown)", k.MetricAt(model.Metric(9), iv), refValueAt(p, model.Metric(9), i)},
		{"Params.FlopRateAt", float64(p.FlopRateAt(i)), float64(refFlopRateAt(p, i))},
		{"Params.FlopRateAtUncapped", float64(p.FlopRateAtUncapped(i)), float64(refFlopRateAtUncapped(p, i))},
		{"Params.EnergyPerFlopAt", float64(p.EnergyPerFlopAt(i)), float64(refEnergyPerFlopAt(p, i))},
		{"Params.FlopsPerJouleAt", float64(p.FlopsPerJouleAt(i)), float64(refFlopsPerJouleAt(p, i))},
		{"Params.AvgPowerAt", p.AvgPowerAt(i).Watts(), refAvgPowerAt(p, i).Watts()},
		{"Params.ThrottleFactor", p.ThrottleFactor(i), refThrottleFactor(p, i)},
		{"Params.MetricAt(eff)", p.MetricAt(model.MetricFlopsPerJoule, i), refValueAt(p, model.MetricFlopsPerJoule, i)},
	}
	for _, c := range checks {
		if math.Float64bits(c.got) != math.Float64bits(c.want) && !(anyNaN && math.IsNaN(c.got) && math.IsNaN(c.want)) {
			return fmt.Sprintf("%s(%g) = %x (%g), reference gives %x (%g)",
				c.what, iv, math.Float64bits(c.got), c.got, math.Float64bits(c.want), c.want)
		}
	}
	want := refRegimeAt(p, i)
	if got := k.RegimeAt(iv); got != want {
		return fmt.Sprintf("RegimeAt(%g) = %v, reference gives %v", iv, got, want)
	}
	if got := p.RegimeAt(i); got != want {
		return fmt.Sprintf("Params.RegimeAt(%g) = %v, reference gives %v", iv, got, want)
	}
	return ""
}

// FuzzKernelMatchesReference extends the bit-identity contract from
// the platform database to arbitrary valid machines: any parameters
// Params.Validate accepts, any cap fraction, any intensity. The seeds
// are Table I rows, so a plain `go test` replays them.
func FuzzKernelMatchesReference(f *testing.F) {
	for _, id := range []machine.ID{"gtx-titan", "arndale-gpu", "xeon-phi", "desktop-cpu"} {
		p := machine.MustByID(id).Single
		for _, c := range []struct{ frac, iv float64 }{{1, 0.25}, {0.5, 4}, {0.125, 64}} {
			f.Add(float64(p.TauFlop), float64(p.TauMem), float64(p.EpsFlop), float64(p.EpsMem),
				p.Pi1.Watts(), p.DeltaPi.Watts(), c.frac, c.iv)
		}
	}
	f.Fuzz(func(t *testing.T, tauFlop, tauMem, epsFlop, epsMem, pi1, deltaPi, capFrac, iv float64) {
		p := model.Params{
			TauFlop: units.TimePerFlop(tauFlop),
			TauMem:  units.TimePerByte(tauMem),
			EpsFlop: units.EnergyPerFlop(epsFlop),
			EpsMem:  units.EnergyPerByte(epsMem),
			Pi1:     units.Power(pi1),
			DeltaPi: units.Power(deltaPi),
		}
		if p.Validate() != nil {
			t.Skip()
		}
		p, err := p.WithCap(capFrac)
		if err != nil || p.Validate() != nil {
			t.Skip()
		}
		k := model.NewKernel(p)
		if d := kernelDiff(p, &k, iv, true); d != "" {
			t.Fatalf("%+v: %s", p, d)
		}
	})
}

// TestKernelPointAtMatchesMethods: the bundled Point carries exactly
// the individual methods' values.
func TestKernelPointAtMatchesMethods(t *testing.T) {
	p := machine.MustByID("gtx-titan").Single
	k := model.NewKernel(p)
	for _, iv := range []float64{0.125, 1, 4, 64, 512} {
		pt := k.PointAt(iv)
		if pt.Intensity != iv || pt.Regime != k.RegimeAt(iv) ||
			pt.FlopsPerSec != k.FlopRateAt(iv) ||
			pt.UncappedFlopsPerSec != k.FlopRateAtUncapped(iv) ||
			pt.FlopsPerJoule != k.FlopsPerJouleAt(iv) ||
			pt.AvgPowerW != k.AvgPowerAt(iv) ||
			pt.Throttle != k.ThrottleFactor(iv) {
			t.Fatalf("PointAt(%g) = %+v disagrees with the per-metric methods", iv, pt)
		}
	}
}

// TestAppendLogSpaceMatchesLogSpace: the on-the-fly grid is the same
// grid LogSpace materializes, chunk boundaries included.
func TestAppendLogSpaceMatchesLogSpace(t *testing.T) {
	p := machine.MustByID("arndale-gpu").Single
	k := model.NewKernel(p)
	const n = 97
	lo, hi := units.Intensity(0.01), units.Intensity(3000)
	grid := model.LogSpace(lo, hi, n)
	l0, l1 := math.Log(lo.Ratio()), math.Log(hi.Ratio())
	var pts []model.Point
	for start := 0; start < n; start += 16 { // uneven chunking on purpose
		end := start + 16
		if end > n {
			end = n
		}
		pts = k.AppendLogSpace(pts, l0, l1, start, end, n)
	}
	if len(pts) != n {
		t.Fatalf("appended %d points, want %d", len(pts), n)
	}
	for idx, pt := range pts {
		iv := grid[idx].Ratio()
		if math.Float64bits(pt.Intensity) != math.Float64bits(iv) {
			t.Fatalf("point %d intensity %x, LogSpace gives %x", idx,
				math.Float64bits(pt.Intensity), math.Float64bits(iv))
		}
		if want := k.PointAt(iv); pt != want {
			t.Fatalf("point %d = %+v, PointAt gives %+v", idx, pt, want)
		}
	}
}

// TestKernelZeroAllocs pins the acceptance criterion directly: a full
// chunk of grid-point evaluations into a pre-sized caller-owned buffer
// performs zero allocations.
func TestKernelZeroAllocs(t *testing.T) {
	p := machine.MustByID("gtx-titan").Single
	k := model.NewKernel(p)
	buf := make([]model.Point, 0, 512)
	l0, l1 := math.Log(0.001), math.Log(1000)
	allocs := testing.AllocsPerRun(50, func() {
		buf = k.AppendLogSpace(buf[:0], l0, l1, 0, 512, 512)
	})
	if allocs != 0 {
		t.Fatalf("AppendLogSpace allocates %.1f times per 512-point chunk, want 0", allocs)
	}
	var sink model.Point
	allocs = testing.AllocsPerRun(50, func() {
		sink = k.PointAt(4)
	})
	if allocs != 0 {
		t.Fatalf("PointAt allocates %.1f times per call, want 0", allocs)
	}
	_ = sink
}
