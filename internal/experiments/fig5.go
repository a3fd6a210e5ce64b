package experiments

import (
	"fmt"
	"strings"

	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/report"
	"archline/internal/scenario"
	"archline/internal/sim"
	"archline/internal/units"
)

// Fig5Panel is one platform's power-vs-intensity panel: the three-regime
// model line and the simulated measurements, both normalized to
// pi_1 + DeltaPi as in the figure.
type Fig5Panel struct {
	Platform *machine.Platform
	Model    []scenario.MetricPoint // normalized eq. (7)
	Measured []scenario.MetricPoint // normalized measured power
	// RegimeAt mirrors the model points with their F/C/M classification.
	Regimes []model.Regime
	// MaxAbsErr is the largest |model-measured|/measured across the sweep
	// (the paper notes mispredictions "always less than 15%" even on the
	// worst platforms).
	MaxAbsErr float64
}

// Fig5Result is the twelve-panel power figure in decreasing order of
// peak energy efficiency.
type Fig5Result struct {
	Panels []*Fig5Panel
}

// Fig5 reproduces fig. 5.
func Fig5(opts Options) (*Fig5Result, error) {
	panels, err := forEachPlatform(machine.ByPeakEfficiency(), opts.Workers,
		func(plat *machine.Platform) (*Fig5Panel, error) {
			return fig5Panel(plat, opts)
		})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Panels: panels}, nil
}

// fig5Panel computes one platform's panel.
func fig5Panel(plat *machine.Platform, opts Options) (*Fig5Panel, error) {
	grid := model.LogSpace(fig5Grid.Lo, fig5Grid.Hi, fig5Grid.N)
	panel := &Fig5Panel{Platform: plat}
	norm := plat.Single.Pi1.Watts() + plat.Single.DeltaPi.Watts()
	k := model.NewKernel(plat.Single)
	for _, i := range grid {
		panel.Model = append(panel.Model, scenario.MetricPoint{
			I: i, Value: k.AvgPowerAt(i.Ratio()) / norm,
		})
		panel.Regimes = append(panel.Regimes, k.RegimeAt(i.Ratio()))
	}
	suite, err := opts.runSuite(plat)
	if err != nil {
		return nil, err
	}
	for _, m := range suite.Sweep(sim.Single) {
		v := m.AvgPower.Watts() / norm
		panel.Measured = append(panel.Measured, scenario.MetricPoint{I: m.Intensity, Value: v})
		modelV := k.AvgPowerAt(m.Intensity.Ratio()) / norm
		if e := abs(modelV-v) / v; e > panel.MaxAbsErr {
			panel.MaxAbsErr = e
		}
	}
	return panel, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Render draws each panel as an ASCII plot with its header annotations.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 5: power (normalized to pi_1 + DeltaPi) vs intensity, by peak energy efficiency\n\n")
	for _, panel := range r.Panels {
		fmt.Fprintf(&b, "== %s ==\n%s\n", panel.Platform.Name, report.PanelHeader(panel.Platform))
		p := &report.Plot{
			XLabel: "intensity (flop:Byte)",
			Width:  64, Height: 10,
			Series: []report.PlotSeries{
				seriesFromPoints("model", panel.Model, '-'),
				seriesFromPoints("measured", panel.Measured, '*'),
			},
		}
		b.WriteString(p.Render())
		// Regime transitions along the sweep, fig. 6-style letters.
		b.WriteString("regimes: ")
		last := model.Regime(-1)
		for k, reg := range panel.Regimes {
			if reg != last {
				if last != model.Regime(-1) {
					b.WriteString(" -> ")
				}
				fmt.Fprintf(&b, "%s@%s", reg.Letter(), units.FormatIntensity(panel.Model[k].I))
				last = reg
			}
		}
		fmt.Fprintf(&b, "\nmax |model-measured|/measured over sweep: %.1f%%\n\n", 100*panel.MaxAbsErr)
	}
	return b.String()
}

// seriesFromPoints converts metric points to a plot series.
func seriesFromPoints(name string, pts []scenario.MetricPoint, marker byte) report.PlotSeries {
	s := report.PlotSeries{Name: name, Marker: marker}
	for _, p := range pts {
		s.X = append(s.X, p.I.Ratio())
		s.Y = append(s.Y, p.Value)
	}
	return s
}
