package snapstore

import (
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/san"
)

// Map evaluates fn over the requested days (0-based, deduplicated, any
// order) of the store's timeline on a GOMAXPROCS worker pool.  The
// sorted days are split into contiguous chunks, one per worker: each
// worker fetches its chunk's first day through the store cache, clones
// it, and then walks forward by applying deltas incrementally — so
// mapping D consecutive days costs one reconstruction plus D-1 delta
// replays per worker, not D reconstructions.
//
// fn runs concurrently on different days (never concurrently for one
// worker's chunk); the snapshot passed to it is reused by the walk and
// must not be mutated or retained past the call.  The first error
// (from reconstruction or fn) cancels remaining work and is returned.
func Map(s *Store, days []int, fn func(day int, g *san.SAN) error) error {
	sorted := slices.Clone(days)
	sort.Ints(sorted)
	sorted = slices.Compact(sorted)
	if len(sorted) == 0 {
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), len(sorted))

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failed   = make(chan struct{})
	)
	setErr := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			close(failed)
		})
	}
	aborted := func() bool {
		select {
		case <-failed:
			return true
		default:
			return false
		}
	}

	// Near-equal contiguous chunks keep each worker's delta walk short.
	for w := 0; w < workers; w++ {
		lo := w * len(sorted) / workers
		hi := (w + 1) * len(sorted) / workers
		if lo == hi {
			continue
		}
		chunk := sorted[lo:hi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := chunk[0]
			g, err := s.Snapshot(cur)
			if err != nil {
				setErr(err)
				return
			}
			g = g.Clone()
			for _, day := range chunk {
				if aborted() {
					return
				}
				for d := cur + 1; d <= day; d++ {
					if err := s.Timeline().ApplyDay(g, d); err != nil {
						setErr(err)
						return
					}
				}
				cur = day
				if err := fn(day, g); err != nil {
					setErr(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
