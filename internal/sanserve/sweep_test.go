package sanserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/snapstore"
)

// sweepRecords requests and decodes a /v1/snapshots/stats response;
// it reports failures as errors so concurrent callers can use it.
func sweepRecords(t *testing.T, h http.Handler, path string) ([]SnapshotStats, error) {
	rec := get(t, h, path)
	if rec.Code != 200 {
		return nil, fmt.Errorf("%s: %d %s", path, rec.Code, rec.Body.String())
	}
	var body struct {
		Stats []SnapshotStats `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return body.Stats, nil
}

// TestStatsSweepMatchesReconstruction pins /v1/snapshots/stats to the
// timeline itself: every day of a full ?days= sweep, for both sources,
// must equal the stats of that day rebuilt with ReconstructAt, and
// sub-ranges (whose cursor Seeks past a prefix) must return the same
// records.  Concurrent sweeps and single-day reads then share the
// mount, so `go test -race` covers the sweep beside the store.
func TestStatsSweepMatchesReconstruction(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	full, view := testTimelines(t)
	n := full.NumDays()
	want := map[string][]SnapshotStats{}
	for src, tl := range map[string]*snapstore.Timeline{"full": full, "view": view} {
		for i := 0; i < n; i++ {
			g, err := tl.ReconstructAt(i)
			if err != nil {
				t.Fatal(err)
			}
			want[src] = append(want[src], snapshotStats("gplus", i+1, src, g))
		}
		for _, r := range [][2]int{{1, n}, {4, 9}, {n, n}} {
			got, err := sweepRecords(t, h, fmt.Sprintf("/v1/snapshots/stats?days=%d-%d&source=%s", r[0], r[1], src))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want[src][r[0]-1:r[1]]) {
				t.Errorf("%s days %d-%d: swept %+v, reconstructed %+v", src, r[0], r[1], got, want[src][r[0]-1:r[1]])
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if w%2 == 1 {
					get(t, h, fmt.Sprintf("/v1/snapshots/%d/stats", (w+i)%n+1))
					continue
				}
				got, err := sweepRecords(t, h, fmt.Sprintf("/v1/snapshots/stats?days=1-%d", n))
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want["full"]) {
					t.Errorf("concurrent sweep diverged: %+v", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSingleFileMountSnapshotStats pins both snapshot endpoints of a
// mount whose view is nil (full serves both roles): every day, for
// source=full and source=view, must equal the stats of that day rebuilt
// with ReconstructAt, labelled with the requested source.
func TestSingleFileMountSnapshotStats(t *testing.T) {
	full, _ := testTimelines(t)
	s := New(Options{Cfg: testConfig()})
	if err := s.Mount("single", full, nil); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	n := full.NumDays()
	for _, src := range []string{"full", "view"} {
		var want []SnapshotStats
		for i := 0; i < n; i++ {
			g, err := full.ReconstructAt(i)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, snapshotStats("single", i+1, src, g))
		}
		for day := 1; day <= n; day++ {
			rec := get(t, h, fmt.Sprintf("/v1/snapshots/%d/stats?source=%s", day, src))
			if rec.Code != 200 {
				t.Fatalf("%s day %d: %d %s", src, day, rec.Code, rec.Body.String())
			}
			var got SnapshotStats
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if got != want[day-1] {
				t.Errorf("%s day %d: served %+v, reconstructed %+v", src, day, got, want[day-1])
			}
		}
		got, err := sweepRecords(t, h, fmt.Sprintf("/v1/snapshots/stats?days=1-%d&source=%s", n, src))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s sweep: served %+v, reconstructed %+v", src, got, want)
		}
	}
	// Each source served n single days and one n-day sweep.
	body := get(t, h, "/metrics").Body.String()
	for _, src := range []string{"full", "view"} {
		want := fmt.Sprintf(`sanserve_store_hits_total{source=%q,timeline="single"} %d`, src, 2*n)
		if !strings.Contains(body, want+"\n") {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
