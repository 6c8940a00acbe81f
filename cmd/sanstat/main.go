// Command sanstat reads a SAN in the san text format and prints the
// paper's measurement suite for it: sizes, reciprocity, densities,
// clustering coefficients, degree-distribution fits, assortativities
// and the effective diameter.
//
// Usage:
//
//	sangen -model san -n 10000 | sanstat
//	sanstat -in crawl.txt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"

	"repro/internal/hll"
	"repro/internal/metrics"
	"repro/internal/san"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is sanstat with its arguments and streams passed in.  It returns
// the exit status: 0 on success and for -h, 2 for a flag parse error
// (the flag package has already printed it with the usage), and 1 when
// the input cannot be read.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sanstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "input file (default stdin)")
		seed     = fs.Uint64("seed", 1, "seed for sampled estimators")
		diameter = fs.Bool("diameter", true, "compute the HyperANF effective diameter")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	r := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(stderr, "sanstat:", err)
			return 1
		}
		defer f.Close()
		r = f
	}
	g, err := san.Read(r)
	if err != nil {
		fmt.Fprintln(stderr, "sanstat:", err)
		return 1
	}
	report(stdout, g, *seed, *diameter)
	return 0
}

// report prints the measurement suite for g to w.
func report(w io.Writer, g *san.SAN, seed uint64, diameter bool) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))

	st := g.Stats()
	fmt.Fprintf(w, "social nodes      %d\n", st.SocialNodes)
	fmt.Fprintf(w, "social links      %d\n", st.SocialLinks)
	fmt.Fprintf(w, "attribute nodes   %d\n", st.AttrNodes)
	fmt.Fprintf(w, "attribute links   %d\n", st.AttrLinks)
	fmt.Fprintf(w, "largest WCC       %d\n", g.LargestWCCSize())
	fmt.Fprintf(w, "reciprocity       %.4f\n", g.Reciprocity())
	fmt.Fprintf(w, "social density    %.3f\n", g.SocialDensity())
	fmt.Fprintf(w, "attribute density %.3f\n", g.AttrDensity())

	k := metrics.SampleSize(0.005, 100)
	fmt.Fprintf(w, "social clustering %.4f   (Algorithm 2, K=%d)\n", metrics.AverageSocialClustering(g, k, rng), k)
	fmt.Fprintf(w, "attr clustering   %.4f\n", metrics.AverageAttrClustering(g, k, rng))
	fmt.Fprintf(w, "assortativity     %+.4f\n", metrics.SocialAssortativity(g))
	fmt.Fprintf(w, "attr assortativity %+.4f\n", metrics.AttrAssortativity(g))

	fit := func(name string, data []int) {
		sel := stats.SelectModel(data)
		fmt.Fprintf(w, "%-18s best=%-12s lognormal(mu=%.2f sigma=%.2f KS=%.3f)  power-law(alpha=%.2f xmin=%d KS=%.3f)\n",
			name, sel.Winner, sel.Lognormal.Mu, sel.Lognormal.Sigma, sel.Lognormal.KS,
			sel.PowerLaw.Alpha, sel.PowerLaw.Xmin, sel.PowerLaw.KS)
	}
	fit("outdegree", metrics.OutDegrees(g))
	fit("indegree", metrics.InDegrees(g))
	var pos []int
	for _, d := range metrics.AttrDegrees(g) {
		if d > 0 {
			pos = append(pos, d)
		}
	}
	if len(pos) > 0 {
		fit("attribute degree", pos)
	}
	if g.NumAttrs() > 0 {
		fit("attr social degree", metrics.AttrSocialDegrees(g))
	}

	if diameter {
		nf := hll.HyperANF(g, hll.Options{Precision: 8, Seed: seed})
		fmt.Fprintf(w, "effective diameter %.2f (90th percentile, HyperANF)\n", nf.EffectiveDiameter(0.9))
	}
}
