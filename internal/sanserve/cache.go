package sanserve

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// cacheKey identifies one figure result: which mount (by name AND
// mount generation), which registry experiment, which day range, and
// which wire encoding.  The generation makes hot reload race-free
// without coordination: a request that resolved a pre-swap *Mount can
// only read or write keys carrying the old generation, which no
// post-swap request will ever look up — stale bytes cannot repopulate
// the cache after an invalidation.
type cacheKey struct {
	timeline string
	gen      uint64
	figure   string
	lo, hi   int
	format   string
}

type cacheEntry struct {
	ready chan struct{} // closed once data/err are set
	data  []byte
	ctype string
	err   error
	elem  *list.Element
}

// errShed is returned by do when the admission gate rejects a cold
// computation; handlers translate it to 429 + Retry-After.
var errShed = &statusError{statusTooManyRequests, "server is at its cold-build concurrency limit; retry shortly (cached queries are unaffected)"}

// statusTooManyRequests avoids importing net/http here; it must equal
// http.StatusTooManyRequests (asserted in tests).
const statusTooManyRequests = 429

// resultCache is a bounded LRU of encoded figure responses with
// single-flight computation: concurrent requests for one key block on
// a single compute call instead of each running the driver.  Errors
// are returned to every waiter but never cached, so a transient
// failure does not poison the key.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*cacheEntry
	lru     *list.List // front = most recently used; values are cacheKeys
}

func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{
		max:     max,
		entries: make(map[cacheKey]*cacheEntry),
		lru:     list.New(),
	}
}

// do returns the cached encoding for key, computing it (once) on a
// miss.  hit reports whether the result came from the cache or an
// already-in-flight computation.
//
// gate, when non-nil, admission-controls cold computations: only the
// caller that would actually start a compute needs a slot, so cache
// hits and single-flight waiters are never shed.  The acquire happens
// under c.mu, before the in-flight entry exists — a shed request
// leaves no entry behind and can never be cached.
//
// ctx cancels *waiting*, not computing: a single-flight waiter whose
// client disconnects returns ctx.Err() immediately while the in-flight
// computation keeps running for the remaining waiters.  The compute
// callback observes its own caller's context (threaded through the
// closure); a canceled compute returns its error uncached, so the next
// request retries — and waits on the dataset build the canceled one
// left running.
func (c *resultCache) do(ctx context.Context, key cacheKey, gate *obs.Gate, compute func() ([]byte, string, error)) (data []byte, ctype string, err error, hit bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, "", ctx.Err(), false
		}
		return e.data, e.ctype, e.err, true
	}
	if gate != nil && !gate.TryAcquire() {
		c.mu.Unlock()
		return nil, "", errShed, false
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	e.elem = c.lru.PushFront(key)
	c.mu.Unlock()

	// The slot covers the whole computation, including the panic path
	// below (the deferred recover re-panics after this release runs).
	if gate != nil {
		defer gate.Release()
	}

	// If compute panics (a figure driver bug), waiters must still be
	// released and the entry dropped,
	// or every later request for this key would block forever.
	defer func() {
		if v := recover(); v != nil {
			c.mu.Lock()
			e.err = fmt.Errorf("sanserve: figure computation panicked: %v", v)
			close(e.ready)
			c.removeLocked(key, e)
			c.mu.Unlock()
			panic(v) // let the handler's recover middleware answer 500
		}
	}()
	e.data, e.ctype, e.err = compute()

	c.mu.Lock()
	close(e.ready)
	if e.err != nil {
		c.removeLocked(key, e)
	}
	c.evictLocked()
	c.mu.Unlock()
	return e.data, e.ctype, e.err, false
}

// removeLocked drops an entry, but only if the map still holds this
// exact entry: invalidateTimeline may have already removed it (and a
// fresh in-flight entry may have taken the key), in which case a
// blind delete would corrupt the LRU bookkeeping of the newcomer.
func (c *resultCache) removeLocked(key cacheKey, e *cacheEntry) {
	if c.entries[key] == e {
		c.lru.Remove(e.elem)
		delete(c.entries, key)
	}
}

// invalidateTimeline drops every entry for the named timeline except
// those belonging to keepGen (pass 0 to drop all generations, e.g.
// for a removed mount).  In-flight entries are unlinked immediately —
// their computations finish for their own waiters but the guarded
// removal above keeps them from touching the map again.  Returns the
// number of entries dropped.
//
// Correctness after a reload does not depend on this purge: old-
// generation keys are unreachable the instant the mount table swaps.
// This is memory hygiene — stale encodings stop occupying LRU slots
// right away instead of aging out.
func (c *resultCache) invalidateTimeline(name string, keepGen uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for key, e := range c.entries {
		if key.timeline != name || (keepGen != 0 && key.gen == keepGen) {
			continue
		}
		c.lru.Remove(e.elem)
		delete(c.entries, key)
		dropped++
	}
	return dropped
}

// evictLocked drops least-recently-used ready entries until the cache
// fits; in-flight entries are never evicted.
func (c *resultCache) evictLocked() {
	for c.lru.Len() > c.max {
		evicted := false
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			key := el.Value.(cacheKey)
			e := c.entries[key]
			select {
			case <-e.ready:
				c.lru.Remove(el)
				delete(c.entries, key)
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			return
		}
	}
}

// Len reports the number of cached (or in-flight) results.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
