package sanserve

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gplus"
)

var (
	benchOnce sync.Once
	benchSrv  http.Handler
)

// benchHandler mounts one packed timeline pair and warms the result
// cache, so the benchmarks measure the cached serving path.
func benchHandler(b *testing.B) http.Handler {
	b.Helper()
	benchOnce.Do(func() {
		cfg := gplus.DefaultConfig()
		cfg.DailyBase = 6
		cfg.Days = 12
		cfg.Seed = 7
		full, view, err := gplus.New(cfg).RunTimelines(nil)
		if err != nil {
			b.Fatal(err)
		}
		s := New(Options{Cfg: experiments.Config{Scale: 20, ModelT: 400, Seed: 7, DiamEvery: 6, HLLBits: 5}})
		if err := s.Mount("gplus", full, view); err != nil {
			b.Fatal(err)
		}
		benchSrv = s.Handler()
	})
	rec := httptest.NewRecorder()
	benchSrv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/figures/2", nil))
	if rec.Code != 200 {
		b.Fatalf("warm request failed: %d", rec.Code)
	}
	return benchSrv
}

// BenchmarkCachedFigureRequest measures one in-process cached figure
// request end to end (router, cache lookup, byte copy).
func BenchmarkCachedFigureRequest(b *testing.B) {
	h := benchHandler(b)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/figures/2", nil))
			if rec.Code != 200 {
				b.Fatal("request failed")
			}
		}
	})
}

// BenchmarkCachedCompareRequest measures one cross-scenario compare
// request on the cached path: mount resolution, per-scenario cache
// hits, and response assembly from the raw cached payloads.
func BenchmarkCachedCompareRequest(b *testing.B) {
	h := benchHandler(b)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/compare/2", nil))
	if rec.Code != 200 {
		b.Fatalf("warm compare failed: %d", rec.Code)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/compare/2", nil))
			if rec.Code != 200 {
				b.Fatal("request failed")
			}
		}
	})
}

// BenchmarkSnapshotStats measures one snapshot-stat request: a read
// of the per-day table recorded at mount, encoded as JSON.
func BenchmarkSnapshotStats(b *testing.B) {
	h := benchHandler(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/snapshots/12/stats", nil))
		if rec.Code != 200 {
			b.Fatal("request failed")
		}
	}
}
