package repro

import (
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gplus"
	"repro/internal/hll"
	"repro/internal/metrics"
	"repro/internal/san"
	"repro/internal/scenario"
	"repro/internal/snapstore"
	"repro/internal/stats"
	"repro/internal/zhel"
)

// Every figure and in-text statistic of the paper has a benchmark that
// regenerates it at the quick experiment scale.  The instrumented
// simulation run behind the measurement figures is cached after the
// first benchmark touches it, so per-figure numbers reflect the
// analysis cost, not the simulation cost.

func benchFigure(b *testing.B, id string) {
	cfg := experiments.QuickConfig()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 && len(fig.Notes) == 0 {
			b.Fatalf("%s produced an empty figure", id)
		}
	}
}

func BenchmarkFig02NodeGrowth(b *testing.B)         { benchFigure(b, "2") }
func BenchmarkFig03LinkGrowth(b *testing.B)         { benchFigure(b, "3") }
func BenchmarkFig04CoreMetrics(b *testing.B)        { benchFigure(b, "4") }
func BenchmarkFig05DegreeFits(b *testing.B)         { benchFigure(b, "5") }
func BenchmarkFig06LognormalEvolution(b *testing.B) { benchFigure(b, "6") }
func BenchmarkFig07aSocialKnn(b *testing.B)         { benchFigure(b, "7a") }
func BenchmarkFig07bAssortativity(b *testing.B)     { benchFigure(b, "7b") }
func BenchmarkFig08AttrMetrics(b *testing.B)        { benchFigure(b, "8") }
func BenchmarkFig09ClusteringByDegree(b *testing.B) { benchFigure(b, "9") }
func BenchmarkFig10AttrDegreeFits(b *testing.B)     { benchFigure(b, "10") }
func BenchmarkFig11AttrParamEvolution(b *testing.B) { benchFigure(b, "11") }
func BenchmarkFig12aAttrKnn(b *testing.B)           { benchFigure(b, "12a") }
func BenchmarkFig12bAttrAssortativity(b *testing.B) { benchFigure(b, "12b") }
func BenchmarkFig13AttrInfluence(b *testing.B)      { benchFigure(b, "13") }
func BenchmarkFig14DegreeByAttr(b *testing.B)       { benchFigure(b, "14") }
func BenchmarkFig15LikelihoodGrid(b *testing.B)     { benchFigure(b, "15") }
func BenchmarkFig16ModelDegrees(b *testing.B)       { benchFigure(b, "16") }
func BenchmarkFig17ModelJDD(b *testing.B)           { benchFigure(b, "17") }
func BenchmarkFig18Ablations(b *testing.B)          { benchFigure(b, "18") }
func BenchmarkFig19Applications(b *testing.B)       { benchFigure(b, "19") }
func BenchmarkTextTriangleCensus(b *testing.B)      { benchFigure(b, "tc") }
func BenchmarkTextDistanceDist(b *testing.B)        { benchFigure(b, "dist") }

// --- Dataset build ------------------------------------------------

// BenchmarkDatasetBuild measures the timeline-backed dataset build:
// one snapstore cursor walk advances an evolving SAN day by day, exact
// metrics come from delta-updated accumulators, and only the sampled
// estimators run per day.  This is the first-touch cost of a sanserve
// mount and of every `sangen sweep` scenario.
func BenchmarkDatasetBuild(b *testing.B) {
	cfg := experiments.QuickConfig()
	src := experiments.GetDataset(cfg) // simulate + pack once, cached across benchmarks
	full, view := src.FullTimeline(), src.ViewTimeline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := experiments.NewTimelineDataset(cfg, full, view)
		if len(ds.Days()) != full.NumDays() {
			b.Fatal("short build")
		}
	}
}

// --- Simulator hot path --------------------------------------------

// simulateAllocCeiling pins the quick-scale RunTimelines allocation
// budget (allocations per op, measured by BenchmarkSimulate).  The
// Fenwick/scratch simulator core stays well under it; a regression
// back to per-call maps or per-wake neighbor slices trips it.
const simulateAllocCeiling = 400_000

// simulateBytesCeiling pins the bytes one quick-scale RunTimelines
// allocates (TestSimulateAllocBytes).  The object count above cannot
// see a few large allocations: a whole-SAN copy per simulated day
// costs about 60 MB at this scale but fewer than 2,000 objects.
const simulateBytesCeiling = 32 << 20

// TestSimulateAllocBytes holds one quick-scale full+view
// StreamTimelines (through RunTimelines' two Live sinks, as
// BenchmarkSimulate runs it) to simulateBytesCeiling, so the bytes
// budget is checked by every go test run, not only under -bench.
func TestSimulateAllocBytes(t *testing.T) {
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = 100
	cfg.Seed = 1
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, _, err := gplus.New(cfg).RunTimelines(nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	n := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("quick-scale RunTimelines allocated %.1f MB (ceiling %.1f MB)", float64(n)/1e6, float64(simulateBytesCeiling)/1e6)
	if n > simulateBytesCeiling {
		t.Fatalf("allocated %d bytes, over the %d-byte ceiling: the pack path copies the SAN again", n, simulateBytesCeiling)
	}
}

// BenchmarkSimulate measures the full simulation hot path at quick
// scale: a three-phase RunTimelines (simulate, then pack the full SAN
// and its crawl view for every day, the view straight from the live
// SAN and the declared flags), the kernel under every sweep scenario
// and every sanserve -workspace cold mount.  It also asserts the
// allocation budget: the simulator core must not regress to per-call
// allocations.
func BenchmarkSimulate(b *testing.B) {
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := gplus.DefaultConfig()
		cfg.DailyBase = 100
		cfg.Seed = uint64(i + 1)
		if _, _, err := gplus.New(cfg).RunTimelines(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if allocs := float64(m1.Mallocs-m0.Mallocs) / float64(b.N); allocs > simulateAllocCeiling {
		b.Fatalf("BenchmarkSimulate allocates %.0f objects/op (ceiling %d): simulator scratch reuse regressed", allocs, simulateAllocCeiling)
	}
}

// BenchmarkStreamPack measures the streaming pack path at the same
// quick scale as BenchmarkSimulate: StreamTimelines through one
// snapstore.StreamWriter to a finalized on-disk timeline.  It streams
// only the full SAN (no view sink), so it runs under
// BenchmarkSimulate, which also encodes the crawl view each day; the
// committed baseline pins the cost of spilling every day to disk.
func BenchmarkStreamPack(b *testing.B) {
	dir := b.TempDir()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := gplus.DefaultConfig()
		cfg.DailyBase = 100
		cfg.Seed = uint64(i + 1)
		w, err := snapstore.NewStreamWriter(filepath.Join(dir, "bench.tl"))
		if err != nil {
			b.Fatal(err)
		}
		if err := gplus.New(cfg).StreamTimelines(1, 0, w, nil, nil); err != nil {
			b.Fatal(err)
		}
		if err := w.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamPackBoth is the full+view streamed pack — the kernel
// behind `sangen -stream-out`, `sangen sweep` and every crawl-scale
// run: simulate, and delta-encode the full SAN and its crawl view
// (filtered from the full SAN as it is encoded, no view copy) to
// on-disk StreamWriters on one goroutine.
func BenchmarkStreamPackBoth(b *testing.B) {
	dir := b.TempDir()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := gplus.DefaultConfig()
		cfg.DailyBase = 100
		cfg.Seed = uint64(i + 1)
		full, err := snapstore.NewStreamWriter(filepath.Join(dir, "full.tl"))
		if err != nil {
			b.Fatal(err)
		}
		view, err := snapstore.NewStreamWriter(filepath.Join(dir, "view.tl"))
		if err != nil {
			b.Fatal(err)
		}
		if err := gplus.New(cfg).StreamTimelines(1, 0, full, view, nil); err != nil {
			b.Fatal(err)
		}
		if err := full.Finalize(); err != nil {
			b.Fatal(err)
		}
		if err := view.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep measures the parallel scenario sweep end to end:
// simulate, pack, and write a two-scenario workspace (the `sangen
// sweep` hot path).
func BenchmarkSweep(b *testing.B) {
	base := gplus.DefaultConfig()
	base.DailyBase = 60
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base.Seed = uint64(i + 1)
		_, err := scenario.Sweep(scenario.Options{
			Dir:       b.TempDir(),
			Scenarios: []string{"baseline", "no-triangle-closing"},
			Base:      base,
			Workers:   2,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks and ablations ----------------------

// BenchmarkGenerateSANModel measures the paper's generative model
// throughput (node arrivals per op at T=4000).
func BenchmarkGenerateSANModel(b *testing.B) {
	p := core.NewDefaultParams(4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		core.Generate(p)
	}
}

// BenchmarkGenerateZhel measures the baseline generator.
func BenchmarkGenerateZhel(b *testing.B) {
	p := zhel.NewDefaultParams(4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		zhel.Generate(p)
	}
}

// BenchmarkGplusSimulation measures the three-phase reference
// simulation at DailyBase 100 (~5k users).
func BenchmarkGplusSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := gplus.DefaultConfig()
		cfg.DailyBase = 100
		cfg.Seed = uint64(i + 1)
		if err := gplus.New(cfg).StreamTimelines(1, 0, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAttachment builds a fixed SAN and measures one attachment
// sample under the given configuration — the LAPA-cost ablation the
// paper discusses in §7.
func benchAttachment(b *testing.B, heuristic bool) {
	p := core.NewDefaultParams(6000)
	g := core.Generate(p)
	at := core.NewAttacher(core.AttachLAPA, 1, 200)
	at.Heuristic = heuristic
	for i := 0; i < g.NumSocial(); i++ {
		at.NodeAdded()
	}
	deg := make([]int, g.NumSocial())
	g.ForEachSocialEdge(func(u, v san.NodeID) {
		deg[v]++
		at.EdgeAdded(v, deg[v])
	})
	rng := rand.New(rand.NewPCG(1, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at.Sample(g, san.NodeID(i%g.NumSocial()), rng)
	}
}

func BenchmarkLAPAExact(b *testing.B)     { benchAttachment(b, false) }
func BenchmarkLAPAHeuristic(b *testing.B) { benchAttachment(b, true) }

// BenchmarkClusteringExactVsSampled quantifies the Appendix A
// estimator's advantage.
func BenchmarkClusteringExact(b *testing.B) {
	g := core.Generate(core.NewDefaultParams(2000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.AverageSocialClusteringExact(g)
	}
}

func BenchmarkClusteringSampled(b *testing.B) {
	g := core.Generate(core.NewDefaultParams(2000))
	rng := rand.New(rand.NewPCG(3, 4))
	k := metrics.SampleSize(0.01, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.AverageSocialClustering(g, k, rng, (*san.SAN).SocialNeighbors)
	}
}

// BenchmarkHyperANF measures the diameter approximation against the
// exact all-pairs BFS alternative.  The seed is fixed so every
// iteration hashes, and therefore sweeps, the same work.
func BenchmarkHyperANF(b *testing.B) {
	g := core.Generate(core.NewDefaultParams(4000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nf := hll.HyperANF(g, hll.Options{Precision: 7, Seed: 1})
		nf.EffectiveDiameter(0.9)
	}
}

func BenchmarkExactNeighborhoodFunction(b *testing.B) {
	g := core.Generate(core.NewDefaultParams(1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hll.ExactNeighborhoodFunction(g)
	}
}

// BenchmarkDegreeFitting measures the full model-selection pipeline
// (lognormal MLE + power-law xmin scan + Vuong comparison).
func BenchmarkDegreeFitting(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewPCG(5, 6))
	data := make([]int, 30000)
	for i := range data {
		data[i] = stats.LognormalInt(rng, 1.8, 1.2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.SelectModel(data)
	}
}

// BenchmarkSANEdgeInsert measures raw graph mutation throughput.
func BenchmarkSANEdgeInsert(b *testing.B) {
	g := san.New(100000, 0, b.N)
	g.AddSocialNodes(100000)
	rng := rand.New(rand.NewPCG(7, 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddSocialEdge(san.NodeID(rng.IntN(100000)), san.NodeID(rng.IntN(100000)))
	}
}
