package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// atProcs runs f once at each GOMAXPROCS value in 1..3, restoring the
// setting afterwards.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// recovered runs f and returns what it panicked with.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 3, 5, 100} {
			hits := make([]atomic.Int32, n)
			For(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d: index %d ran %d times", n, i, got)
				}
			}
		}
	})
}

func TestDoRunsEveryFunc(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		Do()
		out := make([]int, 4)
		Do(func() { out[0] = 1 }, func() { out[1] = 2 }, func() { out[2] = 3 }, func() { out[3] = 4 })
		if fmt.Sprint(out) != "[1 2 3 4]" {
			t.Fatalf("Do wrote %v", out)
		}
	})
}

// TestPanicAfterAllWorkersReturn checks that a worker's panic reaches
// the caller only once every other worker has returned: the slow
// workers' writes are visible when the caller recovers.
func TestPanicAfterAllWorkersReturn(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const n = 6
		release := make(chan struct{})
		var done atomic.Int32
		slow := func() {
			<-release
			done.Add(1)
		}
		v := recovered(func() {
			Do(func() { close(release); panic("first") }, slow, slow)
		})
		if v != "first" || done.Load() != 2 {
			t.Fatalf("Do: recovered %v with %d of 2 slow workers done", v, done.Load())
		}

		done.Store(0)
		gate := make(chan struct{})
		v = recovered(func() {
			For(n, func(i int) {
				if i == 0 {
					close(gate)
					panic("index 0")
				}
				<-gate
				done.Add(1)
			})
		})
		if v != "index 0" || done.Load() != n-1 {
			t.Fatalf("For: recovered %v with %d of %d other indices done", v, done.Load(), n-1)
		}
	})
}

// TestLowestIndexPanicWins checks that when several workers panic the
// caller sees the lowest index's value, whatever order they ran in.
func TestLowestIndexPanicWins(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for trial := 0; trial < 20; trial++ {
			v := recovered(func() {
				For(9, func(i int) {
					if i%3 == 2 {
						panic(i)
					}
				})
			})
			if v != 2 {
				t.Fatalf("For: recovered %v, want 2", v)
			}
			v = recovered(func() {
				Do(func() {}, func() { panic("b") }, func() { panic("c") })
			})
			if v != "b" {
				t.Fatalf("Do: recovered %v, want b", v)
			}
		}
	})
}
