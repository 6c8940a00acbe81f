package snapstore_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gplus"
	"repro/internal/san"
	"repro/internal/snapstore"
)

// walk drains cur, handing every day to fn, and closes it; the first
// error (decode or fn) stops the walk.
func walk(cur *snapstore.CursorN, fn func(day int, gs []*san.SAN, ds []*snapstore.Delta) error) error {
	defer cur.Close()
	for {
		day, gs, ds, err := cur.Next(context.Background())
		if err == snapstore.ErrDone {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(day, gs, ds); err != nil {
			return err
		}
	}
}

// walkOne opens a cursor over tl and walks it with a single-timeline
// visitor.
func walkOne(t *testing.T, tl *snapstore.Timeline, fn func(day int, g *san.SAN, d *snapstore.Delta) error) error {
	t.Helper()
	cur, err := snapstore.OpenCursorN([]*snapstore.Timeline{tl})
	if err != nil {
		t.Fatal(err)
	}
	return walk(cur, func(day int, gs []*san.SAN, ds []*snapstore.Delta) error {
		return fn(day, gs[0], ds[0])
	})
}

// TestFoldMatchesReconstruction walks a full simulated timeline with a
// cursor and checks, for every day, that the evolving graph equals the
// independently reconstructed snapshot and that the delta accounts
// exactly for the day's growth.
func TestFoldMatchesReconstruction(t *testing.T) {
	cfg := testCfg()
	cfg.Days = 40
	sim := gplus.New(cfg)
	tl, _, err := sim.RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}

	var prev san.Stats
	visited := 0
	err = walkOne(t, tl, func(day int, g *san.SAN, d *snapstore.Delta) error {
		if day != visited {
			t.Fatalf("cursor visited day %d, want %d", day, visited)
		}
		visited++
		st := g.Stats()
		// The delta must account exactly for the growth since the
		// previous day (day 0 grows from the empty network).
		if st.SocialNodes != prev.SocialNodes+d.NewSocial ||
			st.AttrNodes != prev.AttrNodes+d.NewAttrs ||
			st.SocialLinks != prev.SocialLinks+len(d.SocialEdges) ||
			st.AttrLinks != prev.AttrLinks+len(d.AttrLinks) {
			t.Fatalf("day %d: delta %+v does not bridge %+v -> %+v", day, d, prev, st)
		}
		prev = st
		// Every recorded link must exist in the updated graph.
		for _, e := range d.SocialEdges {
			if !g.HasSocialEdge(e.U, e.V) {
				t.Fatalf("day %d: delta edge (%d,%d) missing from graph", day, e.U, e.V)
			}
		}
		for _, l := range d.AttrLinks {
			if !g.HasAttrEdge(l.U, l.A) {
				t.Fatalf("day %d: delta link (%d,%d) missing from graph", day, l.U, l.A)
			}
		}
		// Spot-check full structural equality on a few days (SameSAN is
		// O(graph), so not every day).
		if day%13 == 0 || day == tl.NumDays()-1 {
			want, err := tl.ReconstructAt(day)
			if err != nil {
				return err
			}
			if err := snapstore.SameSAN(want, g); err != nil {
				t.Fatalf("day %d: %v", day, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != tl.NumDays() {
		t.Fatalf("cursor visited %d days, want %d", visited, tl.NumDays())
	}
}

// TestFoldNLockstep walks the full and view timelines together through
// one CursorN and checks the two graphs advance in lockstep.
func TestFoldNLockstep(t *testing.T) {
	cfg := testCfg()
	cfg.Days = 20
	sim := gplus.New(cfg)
	full, view, err := sim.RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := snapstore.OpenCursorN([]*snapstore.Timeline{full, view})
	if err != nil {
		t.Fatal(err)
	}
	days := 0
	err = walk(cur, func(day int, gs []*san.SAN, ds []*snapstore.Delta) error {
		days++
		f, v := gs[0], gs[1]
		if f.NumSocial() != v.NumSocial() || f.NumSocialEdges() != v.NumSocialEdges() {
			t.Errorf("day %d: view social graph diverges from full", day)
		}
		if v.NumAttrEdges() > f.NumAttrEdges() {
			t.Errorf("day %d: view has more attribute links than the full SAN", day)
		}
		if ds[0].NewSocial != ds[1].NewSocial {
			t.Errorf("day %d: deltas disagree on social node growth: %d vs %d",
				day, ds[0].NewSocial, ds[1].NewSocial)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if days != full.NumDays() {
		t.Fatalf("cursor visited %d days, want %d", days, full.NumDays())
	}
}

// TestFoldErrors covers the error paths: length mismatch, empty input,
// and a visitor error stopping the walk.
func TestFoldErrors(t *testing.T) {
	cfg := testCfg()
	cfg.Days = 8
	a, _, err := gplus.New(cfg).RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Days = 5
	b, _, err := gplus.New(cfg).RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := snapstore.OpenCursorN(nil); err == nil {
		t.Error("OpenCursorN with no timelines should error")
	}
	if _, err := snapstore.OpenCursorN([]*snapstore.Timeline{a, b}); err == nil {
		t.Error("OpenCursorN with mismatched lengths should error")
	}

	sentinel := errors.New("stop here")
	calls := 0
	err = walkOne(t, a, func(day int, g *san.SAN, d *snapstore.Delta) error {
		calls++
		if day == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("visitor error not propagated: %v", err)
	}
	if calls != 4 {
		t.Errorf("visitor called %d times after aborting on day 3, want 4", calls)
	}
}
