package snapstore_test

import (
	"bytes"
	"testing"

	"repro/internal/gplus"
	"repro/internal/san"
	"repro/internal/snapstore"
)

// testCfg is a small but full-length (98-day) simulation used by the
// timeline fidelity tests.
func testCfg() gplus.Config {
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = 30
	return cfg
}

// TestGplusTimelineRoundTrip is the acceptance check for the storage
// layer: over a full 98-day gplus run, every day's reconstructed SAN
// (full network and crawl view) equals the simulator's snapshot.
func TestGplusTimelineRoundTrip(t *testing.T) {
	sim := gplus.New(testCfg())
	var fullDays, viewDays []*san.SAN
	full, view, err := sim.RunTimelines(func(day int, f *san.SAN) {
		fullDays = append(fullDays, f.Clone())
		viewDays = append(viewDays, sim.CrawlView())
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.NumDays() != sim.Cfg.Days || view.NumDays() != sim.Cfg.Days {
		t.Fatalf("timeline has %d/%d days, want %d", full.NumDays(), view.NumDays(), sim.Cfg.Days)
	}

	// Serialize and reload the full timeline: reconstruction must
	// survive the file format, not just the in-memory container.
	var buf bytes.Buffer
	if _, err := full.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := snapstore.ReadTimeline(&buf)
	if err != nil {
		t.Fatal(err)
	}

	for day := 0; day < sim.Cfg.Days; day++ {
		got, err := reloaded.ReconstructAt(day)
		if err != nil {
			t.Fatalf("full day %d: %v", day+1, err)
		}
		if err := snapstore.SameSAN(fullDays[day], got); err != nil {
			t.Fatalf("full day %d: %v", day+1, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("full day %d: reconstructed SAN invalid: %v", day+1, err)
		}
		gotView, err := view.ReconstructAt(day)
		if err != nil {
			t.Fatalf("view day %d: %v", day+1, err)
		}
		if err := snapstore.SameSAN(viewDays[day], gotView); err != nil {
			t.Fatalf("view day %d: %v", day+1, err)
		}
	}

	// Structure sharing: the deltas after day 0 must be far smaller
	// than re-encoding every day as a full snapshot.
	fullSize := 0
	for day := 0; day < full.NumDays(); day++ {
		fullSize += len(snapstore.EncodeSnapshot(fullDays[day], nil))
	}
	if full.Size() >= fullSize/3 {
		t.Errorf("delta timeline %d bytes, %d as full snapshots: expected >3x sharing", full.Size(), fullSize)
	}
}
