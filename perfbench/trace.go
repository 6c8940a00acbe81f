package main

import (
	"fmt"
	"sync"
	"time"
)

// Span is one recorded interval at a layer boundary.  Times are
// nanoseconds since the tracer was created; Parent is -1 for a root.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory and aggregates each span name's self
// time (its duration minus the part its children cover) as spans end.
// Stored spans are capped so a long traced serving run stays bounded;
// the aggregates always cover every span.
type Tracer struct {
	epoch time.Time
	max   int

	mu      sync.Mutex
	nextID  int32
	spans   []Span
	dropped int
	self    map[string]time.Duration
}

func newTracer(maxSpans int) *Tracer {
	return &Tracer{epoch: time.Now(), max: maxSpans, self: map[string]time.Duration{}}
}

// Region is an open span.  A region and its children are used by one
// goroutine; a nil *Region (from a nil *Tracer) records nothing, so
// traced and untraced passes run the same code.
type Region struct {
	t       *Tracer
	id      int32
	parent  *Region
	name    string
	start   time.Time
	covered time.Duration
}

// Root opens a span with no parent.
func (t *Tracer) Root(name string) *Region {
	if t == nil {
		return nil
	}
	return t.open(name, nil)
}

// Child opens a span inside r.
func (r *Region) Child(name string) *Region {
	if r == nil {
		return nil
	}
	return r.t.open(name, r)
}

func (t *Tracer) open(name string, parent *Region) *Region {
	t.mu.Lock()
	id := t.nextID
	t.nextID++
	t.mu.Unlock()
	return &Region{t: t, id: id, parent: parent, name: name, start: time.Now()}
}

// End closes the span and returns its duration.
func (r *Region) End() time.Duration {
	if r == nil {
		return 0
	}
	end := time.Now()
	d := end.Sub(r.start)
	parent := int32(-1)
	if r.parent != nil {
		r.parent.covered += d
		parent = r.parent.id
	}
	t := r.t
	t.mu.Lock()
	t.self[r.name] += d - r.covered
	if len(t.spans) < t.max {
		t.spans = append(t.spans, Span{
			ID: r.id, Parent: parent, Name: r.name,
			Start: r.start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return d
}

// Do runs fn inside a child span of r.
func (r *Region) Do(name string, fn func() error) error {
	sp := r.Child(name)
	err := fn()
	sp.End()
	return err
}

// SelfTimes returns a copy of the per-name self-time totals so far.
func (t *Tracer) SelfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.self))
	for k, v := range t.self {
		out[k] = v
	}
	return out
}

// Spans returns the stored spans in end order and the number dropped
// past the cap.
func (t *Tracer) Spans() ([]Span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...), t.dropped
}

// selfDelta is the per-name self time accumulated between two
// SelfTimes snapshots.
func selfDelta(before, after map[string]time.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration, len(after))
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// checkSpans verifies the span tree: every parent was recorded, every
// child lies inside its parent, and every span's self time (duration
// minus its children's) is non-negative.  Children of one parent run
// sequentially on the parent's goroutine, so they never overlap.
func checkSpans(spans []Span) error {
	byID := make(map[int32]Span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	childSum := map[int32]int64{}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			// The parent ended after the storage cap was reached.
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] outside parent %d %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		childSum[p.ID] += s.End - s.Start
	}
	for id, covered := range childSum {
		p := byID[id]
		if self := p.End - p.Start - covered; self < 0 {
			return fmt.Errorf("span %d %s has negative self time %dns", p.ID, p.Name, self)
		}
	}
	return nil
}
