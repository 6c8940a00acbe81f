package snapstore_test

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/san"
	"repro/internal/snapstore"
)

// failingTimeline builds a two-day timeline whose day 0 is a large
// valid snapshot and whose day 1 record is garbage: reconstructing day
// 1 spends real time decoding day 0 and then fails deterministically.
// The slow prefix gives concurrent Snapshot callers time to pile onto
// the in-flight reconstruction.
func failingTimeline(t *testing.T) *snapstore.Timeline {
	t.Helper()
	g := san.New(12000, 0, 150000)
	g.AddSocialNodes(12000)
	rng := rand.New(rand.NewPCG(51, 52))
	for i := 0; i < 150000; i++ {
		g.AddSocialEdge(san.NodeID(rng.IntN(12000)), san.NodeID(rng.IntN(12000)))
	}
	snap := snapstore.EncodeSnapshot(g, nil)
	bad := []byte{'X'} // not a delta record

	var buf bytes.Buffer
	buf.Write([]byte{'S', 'A', 'N', 'T', 'L', 1})
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, 2)
	hdr = binary.AppendUvarint(hdr, uint64(len(snap)))
	hdr = binary.AppendUvarint(hdr, uint64(len(bad)))
	buf.Write(hdr)
	buf.Write(snap)
	buf.Write(bad)

	tl, err := snapstore.ReadTimeline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// TestStoreFailurePathStats pins the store's failure-path contract:
// waiters that join an in-flight reconstruction receive its error,
// failures are never cached (a retry reconstructs again), and the
// hit/miss/eviction counters stay coherent throughout.
func TestStoreFailurePathStats(t *testing.T) {
	tl := failingTimeline(t)
	st := snapstore.NewStore(tl, 4)

	// Phase 1: many concurrent readers of the failing day.  The first
	// miss starts a slow, doomed reconstruction; the rest join it as
	// waiters and must get the same error.
	const readers = 8
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			_, errs[i] = st.Snapshot(1)
		}(i)
	}
	start.Done()
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("reader %d: reconstruction of the corrupt day succeeded", i)
		}
	}
	s := st.Stats()
	if s.Hits+s.Misses != readers {
		t.Errorf("hits %d + misses %d != %d readers", s.Hits, s.Misses, readers)
	}
	if s.Misses < 1 {
		t.Errorf("no reader started a reconstruction: %+v", s)
	}
	if s.Hits < 1 {
		// The reconstruction decodes a 150k-edge snapshot; goroutines
		// launched together should always overlap with it.
		t.Errorf("no waiter joined the in-flight failing reconstruction: %+v", s)
	}
	if s.Evictions != 0 {
		t.Errorf("failure path evicted %d entries", s.Evictions)
	}

	// Failures must not be cached: the failed day holds no slot, and a
	// retry starts a fresh reconstruction (another miss, same error).
	if n := st.CachedDays(); n != 0 {
		t.Fatalf("failed reconstruction left %d cached entries", n)
	}
	if _, err := st.Snapshot(1); err == nil {
		t.Fatal("retry of the corrupt day succeeded")
	}
	s2 := st.Stats()
	if s2.Misses != s.Misses+1 {
		t.Errorf("retry after failure was served from cache: misses %d -> %d", s.Misses, s2.Misses)
	}
	if n := st.CachedDays(); n != 0 {
		t.Fatalf("retry left %d cached entries", n)
	}

	// The healthy day is unaffected: one miss to build, then pure hits,
	// and the entry stays cached.
	g, err := st.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if g2, err := st.Snapshot(0); err != nil || g2 != g {
		t.Fatalf("cached healthy day not shared: %v", err)
	}
	s3 := st.Stats()
	if s3.Misses != s2.Misses+1 || s3.Hits != s2.Hits+1 {
		t.Errorf("healthy day counters off: %+v -> %+v", s2, s3)
	}
	if n := st.CachedDays(); n != 1 {
		t.Errorf("healthy day not cached (%d entries)", n)
	}
}
