// Package par runs independent pieces of work on every core and joins
// them before returning.  A panic on a worker goroutine would bypass
// the caller's recover (a dataset build's, a server handler's), so
// both helpers wait for every worker and then re-raise the
// lowest-index panic on the caller's goroutine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do runs fns concurrently, fns[0] on the caller's goroutine and each
// other on its own, and returns once all have returned.  If any
// panicked, Do re-panics with the value of the lowest-index panic.
func Do(fns ...func()) {
	if len(fns) == 0 {
		return
	}
	panics := make([]any, len(fns))
	var wg sync.WaitGroup
	wg.Add(len(fns) - 1)
	for i := 1; i < len(fns); i++ {
		go func() {
			defer wg.Done()
			panics[i] = catch(fns[i])
		}()
	}
	panics[0] = catch(fns[0])
	wg.Wait()
	repanic(panics)
}

// For calls fn(i) once for each i in [0, n) on min(n, GOMAXPROCS)
// workers, so at most GOMAXPROCS calls run at once; fn stores each
// result in slot i.  Every index runs even if another panics; For
// then re-panics with the value of the lowest index that panicked.
func For(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	panics := make([]any, n)
	var next atomic.Int64
	workers := make([]func(), min(n, runtime.GOMAXPROCS(0)))
	for w := range workers {
		workers[w] = func() {
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				panics[i] = catch(func() { fn(i) })
			}
		}
	}
	Do(workers...)
	repanic(panics)
}

// catch runs fn and returns what it panicked with, or nil.
func catch(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func repanic(panics []any) {
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
}
