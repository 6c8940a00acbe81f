package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sanserve"
)

// hotFigures are the figures client A requests from the result cache:
// every dataset-backed figure whose driver is cheap once the fold is
// built, so set-up warms them in about the time of the build.
var hotFigures = []string{"2", "3", "4", "6", "7a", "7b", "8", "10", "11", "12a", "12b", "14", "dist", "summary"}

const (
	reqFigure = iota
	reqSnapshot
	reqHealthz
)

// hotShares are client A's time slices within each one-second round, by
// request kind.  Every rate and latency is reported per kind (a kind's
// requests over the time spent on that kind), so the shares set how
// many samples each kind gets, not the numbers themselves; no recorded
// request mix of this server exists to derive a blend from.  Snapshot
// stats get the largest slice because one averages milliseconds (a
// reconstruction past the LRU takes tens) and hot.snapshot_p99_us
// needs 1000 samples, up to 8 s of them at DailyBase 1000; cached
// figures take microseconds, so their slice yields hundreds of
// thousands; /healthz only samples the floor.
var hotShares = [3]time.Duration{
	reqFigure:   350 * time.Millisecond,
	reqSnapshot: 600 * time.Millisecond,
	reqHealthz:  50 * time.Millisecond,
}

const (
	// hotDays is the size of client A's snapshot day mix: more days
	// than the server's default 8-day snapshot LRU, so the mix both
	// hits and reconstructs.
	hotDays = 10
	// hotCycle and hotSnapshotCycle are the lengths of client A's
	// seeded figure and snapshot-day sequences; the latter is long
	// enough that every seed sees about the same LRU hit ratio.
	hotCycle         = 4096
	hotSnapshotCycle = 100 * hotDays
)

type hotReq struct {
	path string
	want []byte // expected body (nil for /healthz)
}

// hotState is one set-up's server with its warmed reference bodies and
// client A's request sequences, one per kind, with the position each
// has reached (they continue across measured windows).
type hotState struct {
	srv   *sanserve.Server
	h     http.Handler
	seq   [3][]hotReq
	next  [3]int
	users int
	bytes int64
}

// hotSetup packs the seed's pair, mounts it into a fresh server, and
// warms it: every figure of the mix is requested cold (fold build plus
// driver) and each snapshot day of the mix is reconstructed once.  The
// cold bodies become the references every cached response must equal.
func hotSetup(b *bench) (*hotState, error) {
	pack, err := packPair(b, b.o.dir)
	if err != nil {
		return nil, err
	}
	srv := sanserve.New(sanserve.Options{Cfg: serveConfig(b.o)})
	st := &hotState{srv: srv, h: srv.Handler(), users: pack.users, bytes: pack.fullBytes + pack.viewBytes}
	if err := srv.MountFiles(mountName, filepath.Join(b.o.dir, "full.tl"), filepath.Join(b.o.dir, "view.tl")); err != nil {
		srv.Close()
		return nil, err
	}
	ref := map[string][]byte{}
	warm := func(path string) {
		rec, _ := get(st.h, path)
		if b.op(rec.Code == http.StatusOK, "warm %s: status %d", path, rec.Code) {
			ref[path] = rec.Body.Bytes()
		}
	}
	for _, id := range hotFigures {
		warm("/v1/figures/" + id)
	}
	rng := rand.New(rand.NewPCG(b.o.seed, 0x686f74))
	var days []string
	// The middle day of each of hotDays equal blocks, so the mix spans
	// early, middle and late (large) snapshots; the seed orders the
	// accesses.
	block := gplusConfig(b.o).Days / hotDays
	for k := 0; k < hotDays; k++ {
		p := fmt.Sprintf("/v1/snapshots/%d/stats", 1+k*block+block/2)
		days = append(days, p)
		warm(p)
	}
	for i := 0; i < hotSnapshotCycle; i++ {
		p := days[rng.IntN(len(days))]
		st.seq[reqSnapshot] = append(st.seq[reqSnapshot], hotReq{path: p, want: ref[p]})
	}
	for i := 0; i < hotCycle; i++ {
		p := "/v1/figures/" + hotFigures[rng.IntN(len(hotFigures))]
		st.seq[reqFigure] = append(st.seq[reqFigure], hotReq{path: p, want: ref[p]})
	}
	st.seq[reqHealthz] = []hotReq{{path: "/healthz"}}
	return st, nil
}

// hotResult is what the two clients did in one or more windows.
type hotResult struct {
	elapsed  time.Duration
	lat      [3][]time.Duration // client A latencies by request kind
	busy     [3]time.Duration   // client A time spent on each kind
	figRates []float64          // cached figures / s of each round's figure slice
	walks    []time.Duration    // client B stream walks
	rows     int
}

func (r *hotResult) add(o *hotResult) {
	r.elapsed += o.elapsed
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
		r.busy[k] += o.busy[k]
	}
	r.figRates = append(r.figRates, o.figRates...)
	r.walks = append(r.walks, o.walks...)
	r.rows += o.rows
}

// hotWindow runs the two closed-loop clients for the given number of
// rounds.  In each round client A spends one hotShares slice on each
// request kind in turn: cached figures, snapshot stats, /healthz.
// Client B runs summaries-only /v1/stream walks back to back until
// client A is done.  Every response is checked.  With a tracer each
// request gets a span under its client's root span.
func hotWindow(b *bench, st *hotState, rounds int, tr *Tracer) *hotResult {
	res := &hotResult{}
	// Until wg.Wait only client B tallies into b; client A keeps its
	// failures locally and they are folded in afterwards.
	var aFailed []string
	var aDone atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer aDone.Store(true)
		root := tr.Root("hot.client_a")
		defer root.End()
		names := [3]string{"sanserve.figure_hit", "sanserve.snapshot", "sanserve.healthz"}
		for r := 0; r < rounds; r++ {
			for kind, share := range hotShares {
				seq := st.seq[kind]
				t0 := time.Now()
				n := 0
				for end := t0.Add(share); time.Now().Before(end); n++ {
					q := seq[st.next[kind]%len(seq)]
					st.next[kind]++
					sp := root.Child(names[kind])
					rec, lat := get(st.h, q.path)
					sp.End()
					res.lat[kind] = append(res.lat[kind], lat)
					ok := rec.Code == http.StatusOK && (q.want == nil || bytes.Equal(rec.Body.Bytes(), q.want))
					if kind == reqFigure {
						ok = ok && rec.Header().Get("X-Cache") == "hit"
					}
					if !ok {
						aFailed = append(aFailed, fmt.Sprintf("hot %s: status %d, X-Cache %q, body differs from the cold body",
							q.path, rec.Code, rec.Header().Get("X-Cache")))
					}
				}
				spent := time.Since(t0)
				res.busy[kind] += spent
				if kind == reqFigure {
					res.figRates = append(res.figRates, float64(n)/spent.Seconds())
				}
			}
		}
	}()
	days := gplusConfig(b.o).Days
	go func() {
		defer wg.Done()
		root := tr.Root("hot.client_b")
		defer root.End()
		for !aDone.Load() {
			sp := root.Child("sanserve.stream")
			rec, lat := get(st.h, "/v1/stream/"+mountName)
			sp.End()
			body := rec.Body.String()
			b.op(rec.Code == http.StatusOK && streamDone(body, days),
				"hot stream walk: status %d, tail %q", rec.Code, tail(body))
			res.walks = append(res.walks, lat)
			res.rows += days
		}
	}()
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, l := range res.lat {
		b.attempted += len(l)
	}
	b.failed += len(aFailed)
	for _, f := range aFailed {
		if len(b.failures) < 20 {
			b.failures = append(b.failures, f)
		}
	}
	return res
}

// scrapeMetrics reads /metrics and sums every sample by metric name
// across label sets.
func scrapeMetrics(h http.Handler) map[string]float64 {
	rec, _ := get(h, "/metrics")
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if j := strings.LastIndexByte(line, '}'); j >= 0 {
				rest = strings.TrimSpace(line[j+1:])
			}
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(rest, 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// runHot is the hot-serve workload: the read path, warm.  An untraced
// run measures one window of --seconds rounds.  A traced run makes
// --seconds pairs of one-round windows, one untraced and one traced,
// the untraced one first in every other pair: the per-layer figures
// come from the untraced windows, and each pair gives one
// tracing-overhead ratio, so neither drift over the run nor the order
// within a pair reads as tracing cost.
func runHot(b *bench) error {
	var st *hotState
	err := b.setup(func(i int) error {
		if st != nil {
			st.srv.Close()
		}
		var err error
		st, err = hotSetup(b)
		return err
	})
	if err != nil {
		return err
	}
	defer st.srv.Close()

	before := scrapeMetrics(st.h)
	b.startMeasure()
	rounds := int(b.o.seconds / time.Second)
	res := &hotResult{}
	if b.tr == nil {
		res = hotWindow(b, st, rounds, nil)
	} else {
		var overheads []float64
		for i := 0; i < rounds; i++ {
			var plain, traced *hotResult
			if i%2 == 0 {
				plain = hotWindow(b, st, 1, nil)
				traced = hotWindow(b, st, 1, b.tr)
			} else {
				traced = hotWindow(b, st, 1, b.tr)
				plain = hotWindow(b, st, 1, nil)
			}
			res.add(plain)
			overheads = append(overheads, median(plain.figRates)/median(traced.figRates)-1)
		}
		b.set("trace.overhead_ratio", median(overheads))
	}
	b.endMeasure()
	b.set("peak_rss_bytes_per_user", peakRSSPerUser(st.users))
	after := scrapeMetrics(st.h)
	delta := func(name string) float64 { return after[name] - before[name] }
	b.op(delta("sanserve_shed_total") == 0, "hot: %v requests shed", delta("sanserve_shed_total"))

	figs, snaps, health := res.lat[reqFigure], res.lat[reqSnapshot], res.lat[reqHealthz]
	for _, l := range res.lat {
		sortDurations(l)
	}
	sortDurations(res.walks)
	// Client A's throughput is the median over rounds of each figure
	// slice's rate, so a burst of outside load moves it less than it
	// moves the window's mean.
	figRate := median(res.figRates)
	b.set("pass_s", percentile(res.walks, 0.5).Seconds())
	b.set("throughput_per_s", figRate)
	b.set("latency_p50_us", usOf(percentile(figs, 0.5)))
	b.set("packed_bytes_per_user", float64(st.bytes)/float64(st.users))

	b.set("hot.req_per_s", figRate)
	b.set("hot.figure_p50_us", usOf(percentile(figs, 0.5)))
	b.set("hot.figure_samples", float64(len(figs)))
	if tailOK(len(figs), 0.99) {
		b.set("hot.figure_p99_us", usOf(percentile(figs, 0.99)))
	}
	b.set("hot.snapshot_per_s", float64(len(snaps))/res.busy[reqSnapshot].Seconds())
	b.set("hot.snapshot_samples", float64(len(snaps)))
	if tailOK(len(snaps), 0.99) {
		b.set("hot.snapshot_p99_us", usOf(percentile(snaps, 0.99)))
	}
	b.set("hot.stream_rows_per_s", float64(res.rows)/res.elapsed.Seconds())
	b.set("sanserve.healthz_p50_us", usOf(percentile(health, 0.5)))
	hits, misses := delta("sanserve_result_cache_hits_total"), delta("sanserve_result_cache_misses_total")
	b.set("sanserve.cache_hit_ratio", hits/(hits+misses))
	b.set("obs.analytics_dropped", delta("sanserve_analytics_dropped_total"))
	sh, sm := delta("sanserve_store_hits_total"), delta("sanserve_store_misses_total")
	b.set("snapstore.store_hit_ratio", sh/(sh+sm))
	b.set("snapstore.store_evictions", delta("sanserve_store_evictions_total"))
	return nil
}
