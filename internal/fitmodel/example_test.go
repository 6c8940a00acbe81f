package fitmodel_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fitmodel"
	"repro/internal/metrics"
	"repro/internal/san"
	"repro/internal/stats"
	"repro/internal/zhel"
)

// ExampleSearch contrasts the paper's SAN model with the Zhel baseline
// on degree-distribution shape (the §6.1 evaluation), then runs the
// guided parameter search: measure a target network, invert the
// theorems for a starting point, refine.
func ExampleSearch() {
	const n = 8000
	ours := core.Generate(core.NewDefaultParams(n))
	zh := zhel.Generate(zhel.NewDefaultParams(n))

	fmt.Println("degree-distribution best fits (lognormal vs power law):")
	show := func(label string, g *san.SAN) {
		out := stats.SelectModel(metrics.OutDegrees(g))
		in := stats.SelectModel(metrics.InDegrees(g))
		fmt.Printf("  %-10s outdegree=%-12s indegree=%s\n", label, out.Winner, in.Winner)
	}
	show("SAN model", ours)
	show("Zhel", zh)

	// Treat the generated network as an unknown target and recover
	// parameters for it.
	target := fitmodel.MeasureTarget(ours)
	fmt.Printf("target: muOut=%.2f sigmaOut=%.2f density=%.1f attrAlpha=%.2f\n",
		target.MuOut, target.SigmaOut, target.Density, target.AttrSocialAlpha)

	init := fitmodel.InitFromTheory(target)
	fmt.Printf("theory-inverted start: muLife=%.1f sigmaLife=%.1f meanSleep=%.1f p=%.3f\n",
		init.MuLife, init.SigmaLife, init.MeanSleep, init.PNewAttr)

	res := fitmodel.Search(target, fitmodel.Options{T: 600, Sweeps: 1, Seed: 3})
	fmt.Printf("after %d evaluations: score=%.4f muLife=%.1f sigmaLife=%.1f p=%.3f\n",
		res.Evals, res.Score, res.Params.MuLife, res.Params.SigmaLife, res.Params.PNewAttr)

	p := res.Params
	p.T = 4000
	check := fitmodel.MeasureTarget(core.Generate(p))
	fmt.Printf("regenerated with fitted params: muOut=%.2f sigmaOut=%.2f density=%.1f\n",
		check.MuOut, check.SigmaOut, check.Density)
	// Output:
	// degree-distribution best fits (lognormal vs power law):
	//   SAN model  outdegree=lognormal    indegree=lognormal
	//   Zhel       outdegree=power-law    indegree=inconclusive
	// target: muOut=1.59 sigmaOut=1.29 density=13.0 attrAlpha=1.70
	// theory-inverted start: muLife=18.0 sigmaLife=15.7 meanSleep=10.0 p=0.020
	// after 13 evaluations: score=0.0746 muLife=13.9 sigmaLife=15.7 p=0.015
	// regenerated with fitted params: muOut=1.49 sigmaOut=1.36 density=14.8
}
