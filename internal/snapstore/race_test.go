package snapstore_test

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/gplus"
	"repro/internal/snapstore"
)

// TestStoreConcurrentMixedDays stresses the paths the single-day
// single-flight test cannot: random days under heavy eviction pressure
// (a 2-entry cache forces constant evictLocked churn and exercises the
// clone-and-replay base reuse against entries that may be concurrently
// evicted), interleaved with Stats/CachedDays readers over the same
// store.  Its real assertion is `go test -race` staying
// silent; the value checks pin correctness while it runs.
func TestStoreConcurrentMixedDays(t *testing.T) {
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = 5
	cfg.Days = 24
	cfg.Phase1End = 8
	cfg.Phase2End = 16
	cfg.Seed = 3
	tl, _, err := gplus.New(cfg).RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reference day sizes, computed up front single-threaded.
	wantNodes := make([]int, tl.NumDays())
	for d := 0; d < tl.NumDays(); d++ {
		g, err := tl.ReconstructAt(d)
		if err != nil {
			t.Fatal(err)
		}
		wantNodes[d] = g.NumSocial()
	}

	st := snapstore.NewStore(tl, 2) // tiny bound: maximal eviction churn
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 99))
			for i := 0; i < 40; i++ {
				d := rng.IntN(tl.NumDays())
				g, err := st.Snapshot(d)
				if err != nil {
					t.Errorf("day %d: %v", d, err)
					return
				}
				if g.NumSocial() != wantNodes[d] {
					t.Errorf("day %d: %d nodes, want %d", d, g.NumSocial(), wantNodes[d])
					return
				}
			}
		}(uint64(w))
	}
	// Metric readers race the reconstructors.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = st.Stats()
				_ = st.CachedDays()
			}
		}()
	}
	wg.Wait()

	stats := st.Stats()
	if stats.Hits+stats.Misses == 0 {
		t.Error("stress made no cache traffic")
	}
	if stats.Evictions == 0 {
		t.Error("a 2-entry cache under 24-day load must evict")
	}
}
