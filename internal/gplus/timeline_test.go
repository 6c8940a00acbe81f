package gplus

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/san"
	"repro/internal/snapstore"
)

func streamConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 30
	cfg.DailyBase = 100
	return cfg
}

// countingSink wraps a Live and records how many days were packed.
type countingSink struct {
	b    *snapstore.Live
	days int
}

func (c *countingSink) Append(g *san.SAN) error { return c.AppendView(g, nil) }

func (c *countingSink) AppendView(g *san.SAN, declared []bool) error {
	if err := c.b.AppendView(g, declared); err != nil {
		return err
	}
	c.days++
	return nil
}

func (c *countingSink) PackedBytes() int { return c.b.PackedBytes() }

// failingSink errors on the Nth append.
type failingSink struct {
	b      *snapstore.Live
	failAt int
	n      int
}

var errSinkBoom = errors.New("sink boom")

func (f *failingSink) Append(g *san.SAN) error { return f.AppendView(g, nil) }

func (f *failingSink) AppendView(g *san.SAN, declared []bool) error {
	f.n++
	if f.n == f.failAt {
		return errSinkBoom
	}
	return f.b.AppendView(g, declared)
}

func (f *failingSink) PackedBytes() int { return f.b.PackedBytes() }

// TestStreamSinkErrorStopsRun pins sink error propagation for both
// sinks: the failing day is named and the simulator stops at that day
// boundary instead of running to the horizon.
func TestStreamSinkErrorStopsRun(t *testing.T) {
	cfg := streamConfig()
	for _, mode := range []string{"full", "view"} {
		t.Run(mode, func(t *testing.T) {
			s := New(cfg)
			bad := &failingSink{b: snapstore.NewLive(), failAt: 5}
			var err error
			if mode == "full" {
				err = s.StreamTimelines(1, 0, bad, nil, nil)
			} else {
				err = s.StreamTimelines(1, 0, nil, bad, nil)
			}
			if !errors.Is(err, errSinkBoom) {
				t.Fatalf("err = %v, want errSinkBoom", err)
			}
			if !strings.Contains(err.Error(), "day 5") {
				t.Errorf("error %q does not name the failing day", err)
			}
			if s.Day() != 5 {
				t.Errorf("Day() = %d after a day-5 sink failure, want 5", s.Day())
			}
		})
	}
}

// TestPipelinedBarrierDrains pins the checkpoint window contract of
// the perDay hook (the barrier of the stream): it runs only after the
// day's records are packed, so a checkpoint taken there covers every
// day up to and including it.
func TestPipelinedBarrierDrains(t *testing.T) {
	s := New(streamConfig())
	sink := &countingSink{b: snapstore.NewLive()}
	var barrierDays []int
	err := s.StreamTimelines(1, 0, nil, sink, func(day int, _, _ *san.SAN) error {
		if sink.days != day {
			t.Errorf("perDay at day %d: only %d days packed", day, sink.days)
		}
		if day%7 == 0 {
			barrierDays = append(barrierDays, day)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{7, 14, 21, 28}
	if len(barrierDays) != len(want) {
		t.Fatalf("barriers ran at %v, want %v", barrierDays, want)
	}
	for i, d := range want {
		if barrierDays[i] != d {
			t.Fatalf("barriers ran at %v, want %v", barrierDays, want)
		}
	}
}

// TestPipelinedBarrierErrorStopsRun pins that a perDay error (a
// checkpoint that cannot be persisted) stops the run at that day
// boundary and is returned.
func TestPipelinedBarrierErrorStopsRun(t *testing.T) {
	s := New(streamConfig())
	boom := errors.New("checkpoint boom")
	err := s.StreamTimelines(1, 0, nil, snapstore.NewLive(), func(day int, _, _ *san.SAN) error {
		if day == 9 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want checkpoint boom", err)
	}
	if s.Day() != 9 {
		t.Errorf("Day() = %d after a day-9 perDay failure, want 9", s.Day())
	}
}
