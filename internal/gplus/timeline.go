package gplus

import (
	"fmt"

	"repro/internal/san"
	"repro/internal/snapstore"
)

// StreamTimelines simulates days startDay..stopDay (stopDay <= 0 means
// the configured horizon) and packs each day's end state into the given
// sinks: full receives the hidden-attribute SAN, view the crawl view
// (declared attribute links only).  Either sink may be nil.  The view
// sink packs the crawl view straight from the live SAN and the
// declared flags (snapstore.DaySink.AppendView), so no view SAN is
// built.  Streaming sinks (snapstore.StreamWriter) bound resident
// memory by the live SAN plus one day's record — the whole-timeline
// residency of the in-memory sink (snapstore.Live, RunTimelines) is
// what caps runs below crawl scale.
//
// perDay (optional) observes each day after its records are packed.
// Its third argument is always nil; it stays only so existing hook
// literals keep compiling, and a hook that needs the crawl view calls
// CrawlView.  A non-nil perDay error — or any sink error — stops the
// run at that day boundary and is returned: the simulator is left in
// checkpoint-clean state (Day() reports the last completed day) so the
// caller can persist, resume from Day()+1, or abandon it.  Checkpoint
// hooks use the error path to abort a run whose state can no longer be
// persisted; cancelable dataset builds use it to stop simulating
// promptly on context cancellation.
//
// The simulation's evolution is append-only (nodes and links are only
// ever added, and a user's declared flag is drawn once at arrival),
// which is what lets every day after the first pack as a forward delta
// instead of a full snapshot.
func (s *Simulator) StreamTimelines(startDay, stopDay int, full, view snapstore.DaySink, perDay func(day int, g, _ *san.SAN) error) error {
	if stopDay <= 0 || stopDay > s.Cfg.Days {
		stopDay = s.Cfg.Days
	}
	if startDay < 1 {
		startDay = 1
	}
	sinks := 0
	if full != nil {
		sinks++
	}
	if view != nil {
		sinks++
	}
	var runErr error
	packedBytes := 0
	if s.Progress != nil {
		packedBytes = sinkBytes(full, view)
	}
	s.runRange(startDay, stopDay, func(day int, g *san.SAN) bool {
		if full != nil {
			if err := full.Append(g); err != nil {
				runErr = fmt.Errorf("gplus: packing day %d: %w", day, err)
				return false
			}
		}
		if view != nil {
			if err := view.AppendView(g, s.declared); err != nil {
				runErr = fmt.Errorf("gplus: packing day %d view: %w", day, err)
				return false
			}
		}
		if s.Progress != nil && sinks > 0 {
			now := sinkBytes(full, view)
			s.Progress.AddDeltas(sinks)
			s.Progress.AddBytes(now - packedBytes)
			packedBytes = now
		}
		if perDay != nil {
			if err := perDay(day, g, nil); err != nil {
				runErr = err
				return false
			}
		}
		return true
	})
	return runErr
}

func sinkBytes(full, view snapstore.DaySink) int {
	n := 0
	if full != nil {
		n += full.PackedBytes()
	}
	if view != nil {
		n += view.PackedBytes()
	}
	return n
}

// RunTimelines simulates all configured days and packs each day's end
// state into in-memory snapstore timelines — the storage-layer analogue
// of the paper's 79 daily crawl snapshots.  Two timelines are emitted
// in lockstep: the full hidden-attribute SAN and the crawl view
// (declared attribute links only), both indexed so timeline day d-1 is
// simulated day d.  perDay (optional) observes each day's full SAN
// after it is packed; it is the live network, so a hook that keeps a
// day clones it (or takes CrawlView).  Crawl-scale runs stream through
// StreamTimelines instead of materializing both timelines.
func (s *Simulator) RunTimelines(perDay func(day int, full *san.SAN)) (full, view *snapstore.Timeline, err error) {
	fb, vb := snapstore.NewLive(), snapstore.NewLive()
	var hook func(day int, g, _ *san.SAN) error
	if perDay != nil {
		hook = func(day int, g, _ *san.SAN) error {
			perDay(day, g)
			return nil
		}
	}
	if err := s.StreamTimelines(1, 0, fb, vb, hook); err != nil {
		return nil, nil, err
	}
	return fb.Timeline(), vb.Timeline(), nil
}
