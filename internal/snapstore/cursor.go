package snapstore

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/par"
	"repro/internal/san"
)

// ErrDone is returned by CursorN.Next once every day
// has been visited.  It is a clean end-of-data sentinel, not a
// failure.
var ErrDone = errors.New("snapstore: cursor exhausted")

// DaySource is a sequence of timeline day records a cursor can walk.
// Timeline implements it trivially (every day is already present);
// Live implements it over a sequence still being appended, where
// waiting for the next day blocks until the producer delivers it.
//
// The record-access methods are unexported on purpose: the decoding
// side of the format lives in this package, so sources are too.
type DaySource interface {
	// NumDays reports the number of days available right now.
	NumDays() int
	// dayRecord returns the encoded record of day i (i < NumDays()).
	dayRecord(i int) []byte
	// waitDay blocks until day i is available (true), the source has
	// ended with fewer than i+1 days (false), or ctx ends (its error).
	waitDay(ctx context.Context, i int) (bool, error)
}

// Timeline is a DaySource whose days are all present up front.
func (t *Timeline) dayRecord(i int) []byte { return t.days[i] }

func (t *Timeline) waitDay(ctx context.Context, i int) (bool, error) {
	return i < len(t.days), nil
}

// CursorN is a pull-based walk over several equal-length day sources
// in lockstep: each Next advances every source's evolving SAN to the
// same day and returns the graphs plus that day's parsed Deltas: day
// 0 is decoded once, every later day applies that day's delta in place
// — no per-day reconstruction, no clone.  The caller controls the
// loop, so a walk can be abandoned between days (Close), fast-forwarded
// (Seek), or canceled promptly through the context passed to Next.
//
// The graphs and deltas are reused across days: callers must treat
// them as read-only and must not retain them past the next cursor
// call — with one exception: after the final day's Next the cursor
// never touches the graphs again, so the last day's graphs may be kept
// instead of cloned.  A CursorN is not safe for concurrent use.
type CursorN struct {
	srcs   []DaySource
	gs     []*san.SAN
	ds     []*Delta
	next   int
	closed bool
}

// OpenCursorN opens a lockstep cursor over timelines, validating up
// front that they agree on length.
func OpenCursorN(tls []*Timeline) (*CursorN, error) {
	if len(tls) == 0 {
		return nil, fmt.Errorf("snapstore: cursor needs at least one timeline")
	}
	numDays := tls[0].NumDays()
	srcs := make([]DaySource, len(tls))
	for i, t := range tls {
		if t.NumDays() != numDays {
			return nil, fmt.Errorf("snapstore: cursor timelines disagree on length (%d vs %d days)",
				numDays, t.NumDays())
		}
		srcs[i] = t
	}
	return &CursorN{srcs: srcs}, nil
}

// OpenSourceCursorN opens a lockstep cursor over arbitrary day
// sources (e.g. Live timelines still being appended).  Lengths cannot
// be validated up front for growing sources, so disagreement is
// reported by Next at the first day where one source has ended and
// another has not.
func OpenSourceCursorN(srcs ...DaySource) (*CursorN, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("snapstore: cursor needs at least one source")
	}
	return &CursorN{srcs: append([]DaySource(nil), srcs...)}, nil
}

// Next advances to the next day and returns it: the 0-based day
// index, every source's SAN as of that day, and the day's parsed
// growth (day 0 is presented as a pseudo-delta listing the entire
// base snapshot).  It returns ErrDone after the last day, ctx's error
// if the context ends first (including while blocked on a
// still-growing source), and a decode error otherwise.
func (c *CursorN) Next(ctx context.Context) (int, []*san.SAN, []*Delta, error) {
	if c.closed {
		return 0, nil, nil, fmt.Errorf("snapstore: Next on a closed cursor")
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, nil, err
	}
	day := c.next
	ok, err := c.waitAll(ctx, day)
	if err != nil {
		return 0, nil, nil, err
	}
	if !ok {
		return 0, nil, nil, ErrDone
	}
	if err := c.advance(true); err != nil {
		return 0, nil, nil, err
	}
	return day, c.gs, c.ds, nil
}

// Seek fast-forwards the cursor so that the next Next returns day
// (0-based): the intervening day records are applied to the evolving
// graphs without capturing Deltas — the structural replay runs, the
// visitor work does not.  Seeking backward is not supported (the
// encoding is forward-only), and seeking past the end is an error.
// On a still-growing source Seek blocks until the required days
// arrive.
func (c *CursorN) Seek(day int) error {
	if c.closed {
		return fmt.Errorf("snapstore: Seek on a closed cursor")
	}
	if day < c.next {
		return fmt.Errorf("snapstore: cursor cannot seek backward to day %d (next is day %d)", day, c.next)
	}
	for c.next < day {
		ok, err := c.waitAll(context.Background(), c.next)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("snapstore: seek to day %d past the end (%d days)", day, c.next)
		}
		if err := c.advance(false); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the cursor's graphs and delta buffers.  It never
// mutates the graphs, so a caller that kept the final day's graphs
// (see Next) keeps valid state.  Close is idempotent; every later
// Next or Seek fails.
func (c *CursorN) Close() {
	c.closed = true
	c.gs, c.ds = nil, nil
}

// waitAll waits until every source has day, reporting false when they
// have all ended before it.  One source ending while another still
// has the day is a length disagreement.
func (c *CursorN) waitAll(ctx context.Context, day int) (bool, error) {
	have := 0
	for _, src := range c.srcs {
		ok, err := src.waitDay(ctx, day)
		if err != nil {
			return false, err
		}
		if ok {
			have++
		}
	}
	if have == 0 {
		return false, nil
	}
	if have != len(c.srcs) {
		return false, fmt.Errorf("snapstore: cursor sources disagree on length at day %d", day)
	}
	return true, nil
}

// advance applies day c.next to the evolving graphs.  When capture is
// set the decoded growth lands in c.ds (allocated on first use); a
// Seek advance skips the capture entirely, which is what makes the
// replay cheaper than a visited walk.  Each source owns its graph and
// its Delta, so the sources apply on their own workers; after the join
// the lowest-index source's error wins, as a sequential walk would
// report it.
func (c *CursorN) advance(capture bool) error {
	day := c.next
	if day == 0 {
		c.gs = make([]*san.SAN, len(c.srcs))
	}
	if capture {
		c.ensureDeltas()
	}
	errs := make([]error, len(c.srcs))
	par.For(len(c.srcs), func(i int) {
		errs[i] = c.apply(i, day, capture)
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("snapstore: day %d: %w", day, err)
		}
	}
	c.next = day + 1
	return nil
}

// apply advances source i's graph to day: day 0 decodes the base
// snapshot (its capture lists the whole snapshot), every later day
// applies its delta in place.
func (c *CursorN) apply(i, day int, capture bool) error {
	rec := c.srcs[i].dayRecord(day)
	var d *Delta
	if capture {
		d = c.ds[i]
		d.reset()
	}
	if day > 0 {
		return applyDeltaInto(c.gs[i], rec, d)
	}
	g, err := DecodeSnapshot(rec)
	if err != nil {
		return err
	}
	c.gs[i] = g
	if d != nil {
		d.fromSnapshot(g)
	}
	return nil
}

func (c *CursorN) ensureDeltas() {
	if c.ds == nil {
		c.ds = make([]*Delta, len(c.srcs))
		for i := range c.ds {
			c.ds[i] = &Delta{}
		}
	}
}
