package repro_test

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/san"
	"repro/internal/stats"
)

// Example builds a small Social-Attribute Network by hand, measures
// it, then generates a Google+-like SAN with the paper's model and
// checks the model's two analytical predictions (Theorems 1 and 2).
func Example() {
	// The SAN data structure.
	g := san.New(0, 0, 0)
	alice := g.AddSocialNode()
	bob := g.AddSocialNode()
	carol := g.AddSocialNode()

	berkeley := g.AddAttrNode("UC Berkeley", san.School)
	google := g.AddAttrNode("Google", san.Employer)

	g.AddAttrEdge(alice, berkeley)
	g.AddAttrEdge(bob, berkeley)
	g.AddAttrEdge(bob, google)
	g.AddAttrEdge(carol, google)

	g.AddSocialEdge(alice, bob) // alice has bob in circles
	g.AddSocialEdge(bob, alice) // ...and bob reciprocates
	g.AddSocialEdge(bob, carol)

	fmt.Printf("hand-built SAN: %d users, %d directed links, %d attributes\n",
		g.NumSocial(), g.NumSocialEdges(), g.NumAttrs())
	fmt.Printf("reciprocity: %.2f (one of three links is unreciprocated)\n", g.Reciprocity())
	fmt.Printf("alice and bob share %d attribute(s)\n", g.CommonAttrs(alice, bob))

	// The generative model.
	p := core.NewDefaultParams(8000)
	p.Seed = 7
	net := core.Generate(p)
	fmt.Printf("generated SAN: %d users, %d links, %d attributes, density %.1f\n",
		net.NumSocial(), net.NumSocialEdges(), net.NumAttrs(), net.SocialDensity())

	// Theorem 1: social outdegrees are lognormal with predictable
	// parameters.
	muPred, sigmaPred := core.PredictedOutdegreeParams(p)
	mu, sigma := stats.LogMoments(metrics.OutDegrees(net))
	fmt.Printf("Theorem 1: outdegree lognormal mu=%.2f sigma=%.2f (predicted %.2f, %.2f)\n",
		mu, sigma, muPred, sigmaPred)

	// Theorem 2: attribute sizes follow a power law with exponent
	// (2-p)/(1-p).
	fit := stats.FitDiscretePowerLaw(metrics.AttrSocialDegrees(net), 0)
	fmt.Printf("Theorem 2: attribute-size power law alpha=%.2f (predicted %.2f)\n",
		fit.Alpha, core.PredictedAttrDegreeExponent(p))

	// The average clustering coefficient via the paper's constant-time
	// sampling estimator (Appendix A).
	rng := rand.New(rand.NewPCG(1, 2))
	cc := metrics.AverageSocialClustering(net, metrics.SampleSize(0.005, 100), rng, (*san.SAN).SocialNeighbors)
	fmt.Printf("average social clustering coefficient: %.3f\n", cc)
	// Output:
	// hand-built SAN: 3 users, 3 directed links, 2 attributes
	// reciprocity: 0.67 (one of three links is unreciprocated)
	// alice and bob share 1 attribute(s)
	// generated SAN: 8005 users, 100909 links, 1618 attributes, density 12.6
	// Theorem 1: outdegree lognormal mu=1.58 sigma=1.29 (predicted 1.97, 1.05)
	// Theorem 2: attribute-size power law alpha=1.69 (predicted 2.05)
	// average social clustering coefficient: 0.110
}
