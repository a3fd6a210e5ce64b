package experiments

import (
	"fmt"
	"sort"
	"strings"

	"archline/internal/machine"
	"archline/internal/model"
	"archline/internal/report"
	"archline/internal/sim"
	"archline/internal/stats"
)

// Fig4Platform holds one platform's model-validation outcome: the
// distributions of relative power-prediction error under the uncapped
// (prior) and capped (this paper) models.
type Fig4Platform struct {
	Platform *machine.Platform
	// UncappedErrs and CappedErrs are (model - measured)/measured per
	// sweep intensity, the y-axis of fig. 4.
	UncappedErrs []float64
	CappedErrs   []float64
	// Summaries are the boxplot five-number statistics.
	UncappedSummary stats.FiveNumber
	CappedSummary   stats.FiveNumber
	// KS is the two-sample Kolmogorov-Smirnov comparison of the two error
	// distributions; Significant at p < 0.05 earns the paper's "**".
	KS stats.KSResult
}

// Significant reports the fig. 4 "**" marker.
func (f *Fig4Platform) Significant() bool { return f.KS.Significant(0.05) }

// Fig4Result is the full model-accuracy comparison across platforms,
// sorted in descending order of median uncapped error (fig. 4's
// left-to-right order).
type Fig4Result struct {
	Platforms []*Fig4Platform
}

// Fig4 reproduces fig. 4: run the single-precision intensity sweep on
// every platform, predict power with both models using the published
// (fitted) constants, and compare the error distributions.
func Fig4(opts Options) (*Fig4Result, error) {
	platforms, err := forEachPlatform(machine.All(), opts.Workers,
		func(plat *machine.Platform) (*Fig4Platform, error) {
			return fig4Platform(plat, opts)
		})
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Platforms: platforms}
	sort.SliceStable(res.Platforms, func(i, j int) bool {
		return res.Platforms[i].UncappedSummary.Median > res.Platforms[j].UncappedSummary.Median
	})
	return res, nil
}

// fig4Platform computes one platform's error distributions.
func fig4Platform(plat *machine.Platform, opts Options) (*Fig4Platform, error) {
	reps := opts.Replicates
	if reps < 1 {
		reps = 1
	}
	fp := &Fig4Platform{Platform: plat}
	var sweep []sim.Measurement
	for rep := 0; rep < reps; rep++ {
		o := opts
		o.Seed = opts.Seed + uint64(rep)*0x1000
		suite, err := o.runSuite(plat)
		if err != nil {
			return nil, err
		}
		sweep = append(sweep, suite.Sweep(sim.Single)...)
	}
	{
		k := model.NewKernel(plat.Single)
		for _, m := range sweep {
			measuredP := m.AvgPower.Watts()
			if measuredP <= 0 {
				continue
			}
			// Capped model: eq. (7). Uncapped model: E/T with the
			// prior max-of-two time.
			capped := k.AvgPowerAt(m.Intensity.Ratio())
			tu := plat.Single.TimeUncapped(m.W, m.Q)
			uncapped := plat.Single.EnergyUncapped(m.W, m.Q).Over(tu).Watts()
			fp.CappedErrs = append(fp.CappedErrs, (capped-measuredP)/measuredP)
			fp.UncappedErrs = append(fp.UncappedErrs, (uncapped-measuredP)/measuredP)
		}
	}
	var err error
	if fp.UncappedSummary, err = stats.Summary(fp.UncappedErrs); err != nil {
		return nil, err
	}
	if fp.CappedSummary, err = stats.Summary(fp.CappedErrs); err != nil {
		return nil, err
	}
	if fp.KS, err = stats.KolmogorovSmirnov(fp.UncappedErrs, fp.CappedErrs); err != nil {
		return nil, err
	}
	return fp, nil
}

// SignificantCount returns how many platforms earn the "**" marker
// (the paper: 7 of 12).
func (r *Fig4Result) SignificantCount() int {
	n := 0
	for _, p := range r.Platforms {
		if p.Significant() {
			n++
		}
	}
	return n
}

// Improved reports the paper's qualitative claim for a platform: the
// capped model's error distribution is "either lower in median value or
// more tightly grouped" than the uncapped model's.
func (f *Fig4Platform) Improved() bool {
	medianBetter := stats.AbsMedian(f.CappedErrs) <= stats.AbsMedian(f.UncappedErrs)*1.05+1e-9
	tighter := f.CappedSummary.IQR() <= f.UncappedSummary.IQR()*1.05+1e-9
	return medianBetter || tighter
}

// Render formats fig. 4 as a table of error distributions with
// significance markers.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 4: power prediction error, uncapped (prior) vs capped (this paper)\n")
	b.WriteString("platforms sorted by descending median uncapped error; '**' = K-S p < 0.05\n\n")
	tb := &report.Table{
		Headers: []string{"platform", "sig", "uncapped med", "uncapped IQR",
			"capped med", "capped IQR", "K-S D", "K-S p"},
	}
	for _, p := range r.Platforms {
		sig := ""
		if p.Significant() {
			sig = "**"
		}
		tb.AddRow(
			p.Platform.Name,
			sig,
			fmt.Sprintf("%+.3f", p.UncappedSummary.Median),
			fmt.Sprintf("%.3f", p.UncappedSummary.IQR()),
			fmt.Sprintf("%+.3f", p.CappedSummary.Median),
			fmt.Sprintf("%.3f", p.CappedSummary.IQR()),
			fmt.Sprintf("%.3f", p.KS.D),
			fmt.Sprintf("%.4f", p.KS.P),
		)
	}
	b.WriteString(tb.Render())

	var uncapped, capped []report.BoxRow
	for _, p := range r.Platforms {
		uncapped = append(uncapped, report.BoxRow{Label: p.Platform.Name, Stats: p.UncappedSummary})
		capped = append(capped, report.BoxRow{Label: p.Platform.Name, Stats: p.CappedSummary})
	}
	b.WriteString("\nuncapped (prior) model error distributions (':' marks zero error):\n")
	b.WriteString(report.Boxplot(uncapped, 56, 0))
	b.WriteString("\ncapped (this paper) model error distributions:\n")
	b.WriteString(report.Boxplot(capped, 56, 0))

	fmt.Fprintf(&b, "\nplatforms with statistically different distributions: %d of %d (paper: 7 of 12)\n",
		r.SignificantCount(), len(r.Platforms))
	return b.String()
}
