package sanserve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"
)

// PathStats is one path's slice of a load-generation run; the
// overload smoke asserts on the cached path's p99 while cold paths
// are being shed.
type PathStats struct {
	Path     string
	Requests int
	Errors   int
	Shed     int
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
}

// LoadReport summarizes one load-generation run: throughput plus the
// latency percentiles computed from every recorded sample.
type LoadReport struct {
	Path        string // comma-joined for multi-path runs
	Concurrency int
	Requests    int
	Errors      int // non-2xx responses other than well-formed sheds
	Shed        int // 429 responses carrying Retry-After (admission control)
	Duration    time.Duration
	P50         time.Duration
	P95         time.Duration
	P99         time.Duration

	// PerPath breaks the run down by request path, in the order the
	// paths were given (single-path runs have exactly one entry).
	PerPath []PathStats
}

// QPS returns the achieved request throughput.
func (r LoadReport) QPS() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Duration.Seconds()
}

func (r LoadReport) String() string {
	return fmt.Sprintf("loadgen %s: %d requests, %d errors, %d shed, %d workers, %.1fs -> %.0f req/s (p50 %v, p95 %v, p99 %v)",
		r.Path, r.Requests, r.Errors, r.Shed, r.Concurrency, r.Duration.Seconds(), r.QPS(), r.P50, r.P95, r.P99)
}

// LoadGen drives concurrency workers against one handler path for
// roughly the given duration and reports throughput.  Requests are
// dispatched in-process (no sockets), so the number measures the
// serving stack itself: router, cache, encoding.  The first request
// is issued alone to warm the result cache, making the report a
// cached-request throughput figure.
func LoadGen(h http.Handler, path string, concurrency int, d time.Duration) LoadReport {
	return LoadGenPaths(h, []string{path}, concurrency, d)
}

// LoadGenPaths is LoadGen over a path mix: each worker cycles through
// every path round-robin (staggered by worker index so the mix stays
// even at low request counts).  Only the first path is warmed — later
// paths hit the server cold, which is exactly what the overload smoke
// wants: a cached path measured while cold paths contend for build
// slots.  A 429 carrying Retry-After counts as Shed, not an error; a
// 429 without the header is a protocol bug and counts as an error.
func LoadGenPaths(h http.Handler, paths []string, concurrency int, d time.Duration) LoadReport {
	if concurrency < 1 {
		concurrency = 1
	}
	if len(paths) == 0 {
		return LoadReport{}
	}
	warm := httptest.NewRequest("GET", paths[0], nil)
	warmRec := httptest.NewRecorder()
	h.ServeHTTP(warmRec, warm)

	type pathAcc struct {
		requests, errors, shed int
		latencies              []time.Duration
	}
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		acc = make([]pathAcc, len(paths))
	)
	stop := time.Now().Add(d)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]pathAcc, len(paths))
			for i := w; time.Now().Before(stop); i++ {
				p := i % len(paths)
				req := httptest.NewRequest("GET", paths[p], nil)
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				a := &local[p]
				a.latencies = append(a.latencies, time.Since(t0))
				a.requests++
				switch {
				case rec.Code >= 200 && rec.Code < 300:
				case rec.Code == http.StatusTooManyRequests && rec.Header().Get("Retry-After") != "":
					a.shed++
				default:
					a.errors++
				}
			}
			mu.Lock()
			for p := range local {
				acc[p].requests += local[p].requests
				acc[p].errors += local[p].errors
				acc[p].shed += local[p].shed
				acc[p].latencies = append(acc[p].latencies, local[p].latencies...)
			}
			mu.Unlock()
		}(w)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	pct := func(lats []time.Duration, p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(p*float64(len(lats)-1))]
	}
	rep := LoadReport{
		Path:        strings.Join(paths, ","),
		Concurrency: concurrency,
		Duration:    elapsed,
	}
	var all []time.Duration
	for p := range acc {
		a := &acc[p]
		sort.Slice(a.latencies, func(i, j int) bool { return a.latencies[i] < a.latencies[j] })
		rep.Requests += a.requests
		rep.Errors += a.errors
		rep.Shed += a.shed
		all = append(all, a.latencies...)
		rep.PerPath = append(rep.PerPath, PathStats{
			Path:     paths[p],
			Requests: a.requests,
			Errors:   a.errors,
			Shed:     a.shed,
			P50:      pct(a.latencies, 0.50),
			P95:      pct(a.latencies, 0.95),
			P99:      pct(a.latencies, 0.99),
		})
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.P50, rep.P95, rep.P99 = pct(all, 0.50), pct(all, 0.95), pct(all, 0.99)
	return rep
}

// StreamLoadReport summarizes a streaming load-generation run: full
// /v1/stream walks per worker, measured in rows per second (the
// number benchdiff gates per-row overhead with).
type StreamLoadReport struct {
	Path        string
	Concurrency int
	Streams     int // completed stream responses
	Rows        int // day rows across all streams
	Errors      int // non-200 responses or streams without a done record
	Duration    time.Duration
}

// RowsPerSec returns the achieved row throughput.
func (r StreamLoadReport) RowsPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Rows) / r.Duration.Seconds()
}

func (r StreamLoadReport) String() string {
	return fmt.Sprintf("loadgen -stream %s: %d streams, %d rows, %d errors, %d workers, %.1fs -> %.0f rows/s",
		r.Path, r.Streams, r.Rows, r.Errors, r.Concurrency, r.Duration.Seconds(), r.RowsPerSec())
}

// LoadGenStream drives concurrency workers against one /v1/stream path
// for roughly the given duration: each worker runs complete NDJSON
// walks back to back and counts the day rows it received.  Like
// LoadGen, requests are dispatched in-process, so the number measures
// the walk + per-row encoding, not socket throughput.
func LoadGenStream(h http.Handler, path string, concurrency int, d time.Duration) StreamLoadReport {
	if concurrency < 1 {
		concurrency = 1
	}
	var (
		wg                    sync.WaitGroup
		mu                    sync.Mutex
		streams, rows, errCnt int
	)
	stop := time.Now().Add(d)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ls, lr, le int
			for time.Now().Before(stop) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != http.StatusOK {
					le++
					continue
				}
				n, done := 0, false
				for _, line := range strings.Split(rec.Body.String(), "\n") {
					switch {
					case strings.HasPrefix(line, `{"day"`):
						n++
					case strings.HasPrefix(line, `{"done"`):
						done = true
					}
				}
				if !done {
					le++
					continue
				}
				ls++
				lr += n
			}
			mu.Lock()
			streams += ls
			rows += lr
			errCnt += le
			mu.Unlock()
		}()
	}
	start := time.Now()
	wg.Wait()
	return StreamLoadReport{
		Path:        path,
		Concurrency: concurrency,
		Streams:     streams,
		Rows:        rows,
		Errors:      errCnt,
		Duration:    time.Since(start),
	}
}
