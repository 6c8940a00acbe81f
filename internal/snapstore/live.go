package snapstore

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/san"
)

// Live is the in-memory DaySink: one producer appends days (the same
// encoder as StreamWriter, so the records are bitwise what a packed
// file would hold) while any number of cursors tail it through the
// DaySource interface, blocking on days that have not arrived yet.
// Finish marks the end of the sequence, after which waiting readers
// drain and stop; Timeline freezes the days appended so far.
//
// gplus.RunTimelines packs into a pair of Lives, and a sangen
// -stream-out run tees its disk sink into one so a mounted server can
// stream the evolution while the simulation is still running.
type Live struct {
	mu       sync.Mutex
	enc      dayEncoder
	days     [][]byte
	packed   int
	finished bool
	// wake is closed and replaced on every append and on Finish: a
	// cheap broadcast that lets any number of blocked readers re-check
	// state without the producer tracking them individually.
	wake chan struct{}
}

var (
	_ DaySink   = (*Live)(nil)
	_ DaySource = (*Live)(nil)
)

// NewLive returns an empty live timeline.
func NewLive() *Live {
	return &Live{wake: make(chan struct{})}
}

// Append packs g as the next day and wakes every blocked reader.
func (l *Live) Append(g *san.SAN) error { return l.AppendView(g, nil) }

// AppendView packs the crawl view of g under declared (all of g when
// declared is nil) as the next day and wakes every blocked reader.
func (l *Live) AppendView(g *san.SAN, declared []bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.finished {
		return fmt.Errorf("snapstore: append to a finished live timeline")
	}
	rec, err := l.enc.encode(g, declared)
	if err != nil {
		return err
	}
	l.days = append(l.days, rec)
	l.packed += len(rec)
	l.broadcastLocked()
	return nil
}

// PackedBytes reports the total encoded size of the days so far.
func (l *Live) PackedBytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.packed
}

// NumDays reports the number of days appended so far.
func (l *Live) NumDays() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.days)
}

// Timeline returns the days appended so far as an immutable Timeline.
// The producer may keep appending; the returned timeline does not see
// later days.
func (l *Live) Timeline() *Timeline {
	l.mu.Lock()
	defer l.mu.Unlock()
	return &Timeline{days: l.days[:len(l.days):len(l.days)]}
}

// Finished reports whether the producer has called Finish.
func (l *Live) Finished() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.finished
}

// Finish marks the sequence complete: readers blocked past the last
// day return end-of-data instead of waiting.  Idempotent.
func (l *Live) Finish() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.finished {
		l.finished = true
		l.broadcastLocked()
	}
}

func (l *Live) dayRecord(i int) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.days[i]
}

func (l *Live) waitDay(ctx context.Context, i int) (bool, error) {
	for {
		l.mu.Lock()
		n, fin, wake := len(l.days), l.finished, l.wake
		l.mu.Unlock()
		if i < n {
			return true, nil
		}
		if fin {
			return false, nil
		}
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-wake:
		}
	}
}

func (l *Live) broadcastLocked() {
	close(l.wake)
	l.wake = make(chan struct{})
}
