package experiments

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/metrics"
	"repro/internal/san"
	"repro/internal/stats"
)

// Fig5 regenerates Figure 5: the social out- and indegree
// distributions of the final snapshot with their discrete-lognormal
// best fits (and the power-law comparison in the notes).
func Fig5(d *Dataset) Figure {
	out := metrics.OutDegrees(d.FinalView())
	in := metrics.InDegrees(d.FinalView())

	selOut := stats.SelectModel(out)
	selIn := stats.SelectModel(in)

	empOut := pmfSeries("outdeg-empirical", out)
	empIn := pmfSeries("indeg-empirical", in)
	f := Figure{
		ID:    "fig5",
		Title: "Social degree distributions with lognormal fits",
		Series: []Series{
			empOut,
			fitSeries("outdeg-lognormal-fit", empOut,
				stats.LognormalLogPMFFunc(selOut.Lognormal.Mu, selOut.Lognormal.Sigma)),
			empIn,
			fitSeries("indeg-lognormal-fit", empIn,
				stats.LognormalLogPMFFunc(selIn.Lognormal.Mu, selIn.Lognormal.Sigma)),
		},
		Notes: []string{
			fmt.Sprintf("outdegree: winner=%s  lognormal(mu=%.2f sigma=%.2f KS=%.3f)  power-law(alpha=%.2f KS=%.3f)",
				selOut.Winner, selOut.Lognormal.Mu, selOut.Lognormal.Sigma, selOut.Lognormal.KS,
				selOut.PowerLaw.Alpha, selOut.PowerLaw.KS),
			fmt.Sprintf("indegree:  winner=%s  lognormal(mu=%.2f sigma=%.2f KS=%.3f)  power-law(alpha=%.2f KS=%.3f)",
				selIn.Winner, selIn.Lognormal.Mu, selIn.Lognormal.Sigma, selIn.Lognormal.KS,
				selIn.PowerLaw.Alpha, selIn.PowerLaw.KS),
			"paper: both best modeled by a discrete lognormal, not a power law",
		},
	}
	return f
}

// Fig7Knn regenerates Figure 7a: the social knn curve (outdegree vs
// average indegree of linked nodes).
func Fig7Knn(d *Dataset) Figure {
	return Figure{
		ID:     "fig7a",
		Title:  "Social joint degree distribution (knn)",
		Series: []Series{knnSeries("knn", metrics.SocialKnn(d.FinalView()))},
		Notes:  []string{"paper: flat-to-noisy knn, consistent with neutral assortativity"},
	}
}

// Fig9 regenerates Figure 9: clustering coefficient versus node degree
// for social and attribute nodes (9a), and the original-vs-subsampled
// attribute validation (9b).
func Fig9(d *Dataset) Figure {
	rng := rand.New(rand.NewPCG(d.Cfg.Seed, 0x1f83d9abfb41bd6b))
	const perDegree = 60

	social := metrics.SocialClusteringByDegree(d.FinalView(), perDegree, rng)
	attr := metrics.AttrClusteringByDegree(d.FinalView(), perDegree, rng)
	sub := d.FinalView().Subsample(0.5, rng)
	attrSub := metrics.AttrClusteringByDegree(sub, perDegree, rng)

	return Figure{
		ID:    "fig9",
		Title: "Clustering coefficient vs degree; subsampling validation",
		Series: []Series{
			clusteringSeries("social", social),
			clusteringSeries("attr-original", attr),
			clusteringSeries("attr-subsampled", attrSub),
		},
		Notes: []string{
			"paper 9a: both curves power-law-decreasing; attribute clustering lower with steeper slope",
			"paper 9b: original and 0.5-subsampled attribute curves nearly identical (§4.3)",
		},
	}
}

// Fig10 regenerates Figure 10: attribute degree of social nodes
// (lognormal) and social degree of attribute nodes (power law).
func Fig10(d *Dataset) Figure {
	var attrDegs []int
	for _, k := range metrics.AttrDegrees(d.FinalView()) {
		if k > 0 {
			attrDegs = append(attrDegs, k)
		}
	}
	socialDegs := metrics.AttrSocialDegrees(d.FinalView())

	selA := stats.SelectModel(attrDegs)
	plS := stats.FitDiscretePowerLaw(socialDegs, 0)
	lnS := stats.FitDiscreteLognormal(socialDegs)

	empA := pmfSeries("attrdeg-empirical", attrDegs)
	empS := pmfSeries("attr-social-deg-empirical", socialDegs)
	return Figure{
		ID:    "fig10",
		Title: "Attribute-induced degree distributions with best fits",
		Series: []Series{
			empA,
			fitSeries("attrdeg-lognormal-fit", empA,
				stats.LognormalLogPMFFunc(selA.Lognormal.Mu, selA.Lognormal.Sigma)),
			empS,
			fitSeries("attr-social-deg-powerlaw-fit", empS,
				stats.PowerLawLogPMFFunc(plS.Alpha, plS.Xmin)),
		},
		Notes: []string{
			fmt.Sprintf("attribute degree: winner=%s lognormal(mu=%.2f sigma=%.2f)",
				selA.Winner, selA.Lognormal.Mu, selA.Lognormal.Sigma),
			fmt.Sprintf("attribute social degree: power-law alpha=%.2f (xmin=%d, KS=%.3f) vs lognormal KS=%.3f",
				plS.Alpha, plS.Xmin, plS.KS, lnS.KS),
			"paper: attribute degree lognormal; attribute social degree power law (alpha ≈ 2.0-2.1)",
		},
	}
}

// Fig12Knn regenerates Figure 12a: the attribute knn curve.
func Fig12Knn(d *Dataset) Figure {
	return Figure{
		ID:     "fig12a",
		Title:  "Attribute joint degree distribution (knn)",
		Series: []Series{knnSeries("attr-knn", metrics.AttrKnn(d.FinalView()))},
		Notes:  []string{"paper: near-flat curve — attribute popularity says little about members' attribute counts"},
	}
}

// Fig13 regenerates Figure 13: fine-grained reciprocity by common
// social/attribute neighbors (13a) and per-type attribute clustering
// (13b, reported in the notes).
func Fig13(d *Dataset) Figure {
	const maxCommon = 50
	buckets := metrics.FineGrainedReciprocity(d.HalfView(), d.FinalView(), maxCommon)
	classes := metrics.ReciprocityByAttrClass(buckets, maxCommon, 5)

	names := []string{"0-common-attrs", "1-common-attr", ">=2-common-attrs"}
	var series []Series
	for a := 0; a < 3; a++ {
		s := Series{Name: names[a]}
		for _, b := range classes[a] {
			if b.Links < 5 {
				continue
			}
			s.X = append(s.X, float64(b.CommonSocial))
			s.Y = append(s.Y, b.Rate())
		}
		series = append(series, s)
	}

	rng := rand.New(rand.NewPCG(d.Cfg.Seed, 0x5be0cd19137e2179))
	byType := metrics.AverageAttrClusteringByType(d.FinalView(), rng)
	f := Figure{
		ID:     "fig13",
		Title:  "Influence of attributes on reciprocity and clustering",
		Series: series,
		Notes: []string{
			fmt.Sprintf("13b avg attribute clustering: City=%.4f School=%.4f Major=%.4f Employer=%.4f",
				byType[san.City], byType[san.School], byType[san.Major], byType[san.Employer]),
			"paper 13a: reciprocity roughly 2x higher for pairs sharing attributes, at every common-neighbor level",
			"paper 13b: Employer strongest community former, City weakest",
		},
	}
	return f
}

// Fig14 regenerates Figure 14: outdegree percentiles (25/50/75) for
// the top Employer and Major attribute values.
func Fig14(d *Dataset) Figure {
	f := Figure{
		ID:    "fig14",
		Title: "Outdegree percentiles by Employer and Major value",
	}
	for i, name := range []string{"Infosys", "Microsoft", "IBM", "Google",
		"Finance", "Computer Science", "Political Science", "Economics"} {
		a, ok := d.FinalView().AttrByName(name)
		if !ok {
			continue
		}
		degs := metrics.OutDegreesWithAttr(d.FinalView(), a)
		if len(degs) < 5 {
			f.Notes = append(f.Notes, fmt.Sprintf("%s: only %d declared members at this scale", name, len(degs)))
			continue
		}
		ps := stats.PercentilesInt(degs, 25, 50, 75)
		f.Series = append(f.Series, Series{
			Name: name,
			X:    []float64{float64(i)},
			Y:    []float64{ps[1]},
		})
		f.Notes = append(f.Notes, fmt.Sprintf("%-18s n=%4d p25=%.0f median=%.0f p75=%.0f",
			name, len(degs), ps[0], ps[1], ps[2]))
	}
	f.Notes = append(f.Notes,
		"paper: Employer=Google and Major=Computer Science members have the highest degrees")
	return f
}

// DistanceDistribution regenerates the §3.3 in-text observation: the
// directed distance distribution ("dominant mode at six; 90% of
// distances in {5,6,7}" at Google+ scale).
func DistanceDistribution(d *Dataset) Figure {
	rng := rand.New(rand.NewPCG(d.Cfg.Seed, 0xcbbb9d5dc1059ed8))
	dists := d.FinalView().SampleDistances(12, rng)
	hist := map[int]int{}
	for _, x := range dists {
		hist[x]++
	}
	keys := make([]int, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	s := Series{Name: "P(dist)"}
	mode, modeCount := 0, 0
	for _, k := range keys {
		s.X = append(s.X, float64(k))
		s.Y = append(s.Y, float64(hist[k])/float64(len(dists)))
		if hist[k] > modeCount {
			mode, modeCount = k, hist[k]
		}
	}
	return Figure{
		ID:     "dist",
		Title:  "Directed distance distribution (sampled)",
		Series: []Series{s},
		Notes: []string{
			fmt.Sprintf("mode at distance %d (paper: 6 at 30M-user scale; smaller graphs have smaller modes)", mode),
		},
	}
}
