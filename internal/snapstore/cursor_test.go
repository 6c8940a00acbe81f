package snapstore_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gplus"
	"repro/internal/san"
	"repro/internal/snapstore"
)

// openCursor opens a single-timeline cursor.
func openCursor(t *testing.T, tl *snapstore.Timeline) *snapstore.CursorN {
	t.Helper()
	cur, err := snapstore.OpenCursorN([]*snapstore.Timeline{tl})
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

// TestCursorSeekMatchesNext checks that Seek(k) leaves the cursor in
// exactly the state sequential Next calls reach: the day returned
// after the seek carries the same graph and the same delta.
func TestCursorSeekMatchesNext(t *testing.T) {
	cfg := testCfg()
	cfg.Days = 25
	tl, _, err := gplus.New(cfg).RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, k := range []int{0, 1, 7, tl.NumDays() - 1} {
		seq := openCursor(t, tl)
		var wantG *san.SAN
		var wantD snapstore.Delta
		for {
			day, gs, ds, err := seq.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if day == k {
				g, d := gs[0], ds[0]
				wantG = g
				wantD = snapstore.Delta{
					NewSocial:   d.NewSocial,
					NewAttrs:    d.NewAttrs,
					SocialEdges: append([]snapstore.SocialEdge(nil), d.SocialEdges...),
					AttrLinks:   append([]snapstore.AttrLink(nil), d.AttrLinks...),
				}
				break
			}
		}

		skipped := openCursor(t, tl)
		if err := skipped.Seek(k); err != nil {
			t.Fatalf("Seek(%d): %v", k, err)
		}
		day, gs, ds, err := skipped.Next(ctx)
		if err != nil {
			t.Fatalf("Next after Seek(%d): %v", k, err)
		}
		g, d := gs[0], ds[0]
		if day != k {
			t.Fatalf("Next after Seek(%d) returned day %d", k, day)
		}
		if err := snapstore.SameSAN(wantG, g); err != nil {
			t.Fatalf("Seek(%d): graph differs from sequential walk: %v", k, err)
		}
		if d.NewSocial != wantD.NewSocial || d.NewAttrs != wantD.NewAttrs ||
			len(d.SocialEdges) != len(wantD.SocialEdges) || len(d.AttrLinks) != len(wantD.AttrLinks) {
			t.Fatalf("Seek(%d): delta shape differs from sequential walk", k)
		}
		for j, e := range d.SocialEdges {
			if e != wantD.SocialEdges[j] {
				t.Fatalf("Seek(%d): social edge %d differs", k, j)
			}
		}
		seq.Close()
		skipped.Close()
	}
}

// TestCursorSeekErrors covers backward and past-the-end seeks.
func TestCursorSeekErrors(t *testing.T) {
	cfg := testCfg()
	cfg.Days = 6
	tl, _, err := gplus.New(cfg).RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := openCursor(t, tl)
	defer cur.Close()
	if err := cur.Seek(3); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cur.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cur.Seek(2); err == nil {
		t.Error("backward Seek should error")
	}
	if err := cur.Seek(tl.NumDays() + 3); err == nil {
		t.Error("past-the-end Seek should error")
	}
}

// TestCursorContextCancel checks that a canceled context stops the
// walk between days with the context's error, and that Close makes
// later calls fail.
func TestCursorContextCancel(t *testing.T) {
	cfg := testCfg()
	cfg.Days = 10
	tl, _, err := gplus.New(cfg).RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur := openCursor(t, tl)
	if _, _, _, err := cur.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, _, _, err := cur.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next on canceled ctx: %v, want context.Canceled", err)
	}
	cur.Close()
	if _, _, _, err := cur.Next(context.Background()); err == nil {
		t.Error("Next on closed cursor should error")
	}
	if err := cur.Seek(5); err == nil {
		t.Error("Seek on closed cursor should error")
	}
}

// TestCursorEmptyAndMismatch covers the open-time validation paths.
func TestCursorEmptyAndMismatch(t *testing.T) {
	if _, err := snapstore.OpenCursorN(nil); err == nil {
		t.Error("OpenCursorN with no timelines should error")
	}
	if _, err := snapstore.OpenSourceCursorN(); err == nil {
		t.Error("OpenSourceCursorN with no sources should error")
	}
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
	if _, err := snapstore.OpenCursorN([]*snapstore.Timeline{a, b}); err == nil {
		t.Error("OpenCursorN with mismatched lengths should error")
	}
}

// TestLiveTailCursor runs a producer appending days into a Live while
// a cursor tails it: every day must arrive in order with the same
// structure a batch walk sees, Next must block until the producer
// delivers, and ErrDone must follow Finish.
func TestLiveTailCursor(t *testing.T) {
	cfg := testCfg()
	cfg.Days = 15
	tl, _, err := gplus.New(cfg).RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Reference walk over the packed timeline.
	var wantStats []san.Stats
	if err := walkOne(t, tl, func(day int, g *san.SAN, d *snapstore.Delta) error {
		wantStats = append(wantStats, g.Stats())
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	live := snapstore.NewLive()
	go func() {
		// Re-produce the same evolution into the live sink by replaying
		// the packed days.
		g, err := tl.ReconstructAt(0)
		if err != nil {
			t.Error(err)
			return
		}
		if err := live.Append(g); err != nil {
			t.Error(err)
			return
		}
		for day := 1; day < tl.NumDays(); day++ {
			if err := tl.ApplyDay(g, day); err != nil {
				t.Error(err)
				return
			}
			if err := live.Append(g); err != nil {
				t.Error(err)
				return
			}
		}
		live.Finish()
	}()

	cur, err := snapstore.OpenSourceCursorN(live)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	ctx := context.Background()
	days := 0
	for {
		day, gs, _, err := cur.Next(ctx)
		if err == snapstore.ErrDone {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if day != days {
			t.Fatalf("live cursor returned day %d, want %d", day, days)
		}
		if gs[0].Stats() != wantStats[day] {
			t.Fatalf("day %d: live cursor graph %+v, batch %+v", day, gs[0].Stats(), wantStats[day])
		}
		days++
	}
	if days != tl.NumDays() {
		t.Fatalf("live cursor visited %d days, want %d", days, tl.NumDays())
	}
	if !live.Finished() {
		t.Error("live timeline should report finished")
	}
}

// TestLiveTailCancel checks a reader blocked on an idle producer is
// released by context cancellation.
func TestLiveTailCancel(t *testing.T) {
	live := snapstore.NewLive()
	cur, err := snapstore.OpenSourceCursorN(live)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := cur.Next(ctx)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked Next after cancel: %v, want context.Canceled", err)
	}
}

// setDayTag returns a copy of tl whose day record day starts with tag
// instead of the delta tag, so applying it fails naming that tag.
func setDayTag(t *testing.T, tl *snapstore.Timeline, day int, tag byte) *snapstore.Timeline {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	off := len(b)
	for i := day; i < tl.NumDays(); i++ {
		off -= tl.DaySize(i)
	}
	b[off] = tag
	bad, err := snapstore.ReadTimeline(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

// TestCursorCorruptDayErrors pins the error of a lockstep walk whose
// sources apply each day concurrently: a corrupt day in source 0, in
// source 1 or in both fails Next (and a Seek across it) with one error
// naming the day, and with both corrupt the error is source 0's.
func TestCursorCorruptDayErrors(t *testing.T) {
	cfg := testCfg()
	cfg.Days = 8
	full, view, err := gplus.New(cfg).RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}
	const day = 5
	bad0, bad1 := setDayTag(t, full, day, 'X'), setDayTag(t, view, day, 'Y')
	for _, c := range []struct {
		name       string
		full, view *snapstore.Timeline
		tag        string
	}{
		{"source 0", bad0, view, "'X'"},
		{"source 1", full, bad1, "'Y'"},
		{"both", bad0, bad1, "'X'"},
	} {
		check := func(how string, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s: %s crossed corrupt day %d without error", c.name, how, day)
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, fmt.Sprintf("snapstore: day %d: ", day)) ||
				strings.Count(msg, "snapstore: day") != 1 || !strings.Contains(msg, "(tag "+c.tag+")") {
				t.Errorf("%s: %s error %q, want one day-%d error with tag %s", c.name, how, msg, day, c.tag)
			}
		}

		cur, err := snapstore.OpenCursorN([]*snapstore.Timeline{c.full, c.view})
		if err != nil {
			t.Fatal(err)
		}
		for {
			d, _, _, err := cur.Next(context.Background())
			if err != nil {
				check("Next", err)
				break
			}
			if d >= day {
				t.Fatalf("%s: Next returned day %d past the corrupt day", c.name, d)
			}
		}
		cur.Close()

		cur, err = snapstore.OpenCursorN([]*snapstore.Timeline{c.full, c.view})
		if err != nil {
			t.Fatal(err)
		}
		check("Seek", cur.Seek(day+1))
		cur.Close()
	}
}
