package snapstore_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/gplus"
	"repro/internal/snapstore"
)

// benchCfg matches the repo-root BenchmarkGplusSimulation scale
// (DailyBase 100, ~5k users over 98 days) so the timeline numbers are
// directly comparable with re-simulation cost.
func benchCfg() gplus.Config {
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = 100
	return cfg
}

var (
	benchOnce  sync.Once
	benchPack  []byte
	benchTL    *snapstore.Timeline
	benchTLErr error
)

// benchTimeline packs one benchmark timeline, shared by all benchmarks
// in this file (simulation is the expensive part).
func benchTimeline(b *testing.B) (*snapstore.Timeline, []byte) {
	b.Helper()
	benchOnce.Do(func() {
		tl, _, err := gplus.New(benchCfg()).RunTimelines(nil)
		if err != nil {
			benchTLErr = err
			return
		}
		var buf bytes.Buffer
		if _, err := tl.WriteTo(&buf); err != nil {
			benchTLErr = err
			return
		}
		benchTL = tl
		benchPack = buf.Bytes()
	})
	if benchTLErr != nil {
		b.Fatal(benchTLErr)
	}
	return benchTL, benchPack
}

// BenchmarkTimelineLoad measures the storage hot path: parse a packed
// timeline file and reconstruct the final (largest) day.  Compare with
// BenchmarkResimulateFinalDay for the speedup over re-simulating.
func BenchmarkTimelineLoad(b *testing.B) {
	_, pack := benchTimeline(b)
	b.SetBytes(int64(len(pack)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl, err := snapstore.ReadTimeline(bytes.NewReader(pack))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tl.ReconstructAt(tl.NumDays() - 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResimulateFinalDay is the baseline BenchmarkTimelineLoad
// replaces: a fresh gplus run to reach the same final-day SAN.
func BenchmarkResimulateFinalDay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gplus.New(benchCfg()).Run(nil)
	}
}

// BenchmarkTimelineMap measures a sequential sweep over the full
// 98-day range — one cursor, one decode of day 0 and one delta replay
// per later day, the walk sanserve's mount validation makes — with one cheap
// deterministic metric per day, so the number reflects replay
// throughput, not metric cost.
func BenchmarkTimelineMap(b *testing.B) {
	tl, _ := benchTimeline(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := snapstore.OpenCursorN([]*snapstore.Timeline{tl})
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, gs, _, err := cur.Next(ctx)
			if err == snapstore.ErrDone {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			if gs[0].Reciprocity() < 0 {
				b.Fail()
			}
		}
		cur.Close()
	}
}

// TestReconstructionFasterThanResimulation pins the perf property the
// subsystem exists for: loading the final day from a packed timeline
// must beat re-running the simulation.  The margin is generous (the
// observed gap is >10x) so scheduler noise cannot flake the test.
func TestReconstructionFasterThanResimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	cfg := benchCfg()
	simStart := time.Now()
	sim := gplus.New(cfg)
	var tl *snapstore.Timeline
	tl, _, err := sim.RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}
	simElapsed := time.Since(simStart)

	var buf bytes.Buffer
	if _, err := tl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loadStart := time.Now()
	rtl, err := snapstore.ReadTimeline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtl.ReconstructAt(rtl.NumDays() - 1); err != nil {
		t.Fatal(err)
	}
	loadElapsed := time.Since(loadStart)

	// RunTimelines also pays for packing, which only biases the test
	// against false failures; reconstruction must still win outright.
	if loadElapsed >= simElapsed {
		t.Errorf("timeline load %v is not faster than re-simulation %v", loadElapsed, simElapsed)
	}
	t.Logf("final-day reconstruction %v vs re-simulation %v (%.1fx)",
		loadElapsed, simElapsed, float64(simElapsed)/float64(loadElapsed))
}
