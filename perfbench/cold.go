package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sanserve"
	"repro/internal/snapstore"
)

// mountName is the timeline name every served workload mounts.
const mountName = "g"

// serveConfig is the experiment configuration every server uses:
// exactly `sanserve -quick`, its own seed included.  The benchmark's
// seed drives the timelines, not this: the model figures (16, 18) and
// figure 5 generate networks from the config seed whose cost varies up
// to twofold between seeds, which would measure the draw, not the code.
func serveConfig(o options) experiments.Config {
	cfg := experiments.QuickConfig()
	if o.modelT > 0 {
		cfg.ModelT = o.modelT
	}
	return cfg
}

// packPair streams the seed's full+view timeline pair into dir (no
// checkpoints) and returns the crawl.
func packPair(b *bench, dir string) (crawlResult, error) {
	return streamCrawl(gplusConfig(b.o), dir, 0, nil)
}

// get issues one in-process request against h and returns the recorder
// and the latency.
func get(h http.Handler, path string) (*httptest.ResponseRecorder, time.Duration) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return rec, time.Since(t0)
}

// streamDone reports whether an NDJSON /v1/stream body holds one row
// per day and ends with the terminal record of a complete walk.
func streamDone(body string, days int) bool {
	return strings.Count(body, "{\"day\":") == days &&
		strings.HasSuffix(body, fmt.Sprintf("{\"done\":true,\"rows\":%d}\n", days))
}

// coldResult is one cold pass through a fresh server.
type coldResult struct {
	mount, firstFigure, allFigures, walk time.Duration
	rows                                 int
	bodies                               map[string][]byte // cold figure bodies by ID

	// Traced passes only: the loaded timelines and the time of the
	// repeat (cached) figure requests.
	full, view *snapstore.Timeline
	hits       time.Duration
}

func (r coldResult) pass() time.Duration { return r.mount + r.allFigures + r.walk }

// coldPass mounts the pair into a fresh server, requests every registry
// figure once, then walks /v1/stream with every folded metric.  A
// traced pass (root != nil) loads and mounts in two spans (load, then
// the validating Mount) instead of one MountFiles call, and afterwards
// repeats every figure request once as a cache hit.
func coldPass(b *bench, fullPath, viewPath string, root *Region) (coldResult, error) {
	res := coldResult{bodies: map[string][]byte{}}
	srv := sanserve.New(sanserve.Options{Cfg: serveConfig(b.o)})
	defer srv.Close()
	h := srv.Handler()

	t0 := time.Now()
	if root == nil {
		if err := srv.MountFiles(mountName, fullPath, viewPath); err != nil {
			return res, err
		}
	} else {
		err := root.Do("snapstore.load", func() error {
			var err error
			if res.full, err = snapstore.LoadFile(fullPath); err != nil {
				return err
			}
			res.view, err = snapstore.LoadFile(viewPath)
			return err
		})
		if err != nil {
			return res, err
		}
		if err := root.Do("sanserve.mount_validate", func() error { return srv.Mount(mountName, res.full, res.view) }); err != nil {
			return res, err
		}
	}
	res.mount = time.Since(t0)

	ids := experiments.IDs()
	b.op(slices.Equal(ids, figureIDs), "registry IDs %v differ from the benchmark's %v", ids, figureIDs)
	for _, id := range ids {
		sp := root.Child("sanserve.figure")
		rec, lat := get(h, "/v1/figures/"+id)
		sp.End()
		b.op(rec.Code == http.StatusOK, "cold figure %s: status %d", id, rec.Code)
		if res.firstFigure == 0 && experiments.NeedsDataset(id) {
			res.firstFigure = lat
		}
		res.allFigures += lat
		res.bodies[id] = rec.Body.Bytes()
	}

	sp := root.Child("sanserve.stream")
	rec, lat := get(h, "/v1/stream/"+mountName+"?metrics=all")
	sp.End()
	body := rec.Body.String()
	res.walk = lat
	res.rows = gplusConfig(b.o).Days
	b.op(rec.Code == http.StatusOK && streamDone(body, res.rows),
		"cold stream walk: status %d, tail %q", rec.Code, tail(body))

	if root != nil {
		for _, id := range ids {
			sp := root.Child("sanserve.figure_hit")
			rec, _ := get(h, "/v1/figures/"+id)
			res.hits += sp.End()
			b.op(rec.Code == http.StatusOK && rec.Header().Get("X-Cache") == "hit" && bytes.Equal(rec.Body.Bytes(), res.bodies[id]),
				"repeat figure %s: status %d, X-Cache %q, body equal %v", id, rec.Code, rec.Header().Get("X-Cache"), bytes.Equal(rec.Body.Bytes(), res.bodies[id]))
		}
	}
	return res, nil
}

func tail(s string) string {
	if len(s) > 80 {
		return s[len(s)-80:]
	}
	return s
}

// replicaPass times the layers under a cold figure request through
// their public APIs: the fold (cursor decode, accumulator feed, sampled
// estimators), the dataset build and every registry driver on the
// built dataset.  It checks the replica fold against the build and each
// driver's figure against the server's cold body.
func replicaPass(b *bench, full, view *snapstore.Timeline, cold map[string][]byte, root *Region) error {
	cfg := serveConfig(b.o)
	// A progress sink of its own keys the package-level model caches
	// apart from the server's, so the drivers below run cold too.
	cfg.Progress = obs.NewProgress("perfbench")

	fold := root.Child("experiments.fold")
	cur, err := snapstore.OpenCursorN([]*snapstore.Timeline{full, view})
	if err != nil {
		return err
	}
	folder := experiments.NewDayFolder(cfg)
	var replica []experiments.DayMetrics
	ctx := context.Background()
	for {
		sp := fold.Child("snapstore.cursor_next")
		day, gs, ds, err := cur.Next(ctx)
		sp.End()
		if err == snapstore.ErrDone {
			break
		}
		if err != nil {
			cur.Close()
			return err
		}
		fold.Do("experiments.feed", func() error { folder.Feed(ds[0], ds[1]); return nil })
		d := day + 1
		name := "experiments.measure"
		if cfg.DiamEvery > 0 && d%cfg.DiamEvery == 0 && d >= cfg.DiamEvery {
			name = "experiments.measure_diam"
		}
		fold.Do(name, func() error { replica = append(replica, folder.Measure(d, gs[0], gs[1])); return nil })
	}
	cur.Close()
	fold.End()

	ds := experiments.NewTimelineDataset(cfg, full, view)
	if err := root.Do("experiments.build", func() error { return ds.Build(ctx) }); err != nil {
		return err
	}
	b.op(sameDays(replica, ds.Days()), "replica fold differs from Dataset.Build")
	for _, id := range experiments.IDs() {
		var fig experiments.Figure
		err := root.Do("experiments.fig."+id, func() (err error) {
			fig, err = experiments.RunOn(id, ds)
			return err
		})
		if b.op(err == nil, "RunOn %s: %v", id, err) {
			b.op(sameFigure(cold[id], fig), "figure %s: the driver's figure differs from the server's cold body", id)
		}
	}
	return nil
}

// sameFigure reports whether a full-range /v1/figures JSON body carries
// exactly the driver's figure.  JSON keeps every finite float64
// exactly, and the server cannot encode a NaN, so equal values here
// mean bitwise-equal series.
func sameFigure(body []byte, fig experiments.Figure) bool {
	var resp sanserve.FigureResponse
	if json.Unmarshal(body, &resp) != nil || resp.ID != fig.ID || resp.Title != fig.Title ||
		!slices.Equal(resp.Notes, fig.Notes) || len(resp.Series) != len(fig.Series) {
		return false
	}
	for i, s := range fig.Series {
		got := resp.Series[i]
		if got.Name != s.Name || !slices.Equal(got.X, s.X) || !slices.Equal(got.Y, s.Y) {
			return false
		}
	}
	return true
}

// sameDays compares day metric records exactly.  %v prints each float
// in its shortest round-tripping form and NaN as "NaN", so equal text
// means bitwise-equal values with NaN matching NaN.
func sameDays(a, b []experiments.DayMetrics) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// runCold is the cold-mount workload: the read path, cold.  Set-up
// packs the seed's timeline pair; the measured pass mounts it into a
// fresh server and answers every figure and one full stream walk.  A
// traced run follows it with one traced pass and the public-API replica
// of the layers beneath it.
//
// A run makes exactly one measured pass, whatever --seconds says.  A
// pass takes 13-42 s on the reference host, longer than a run's
// --seconds, and repeating passes until --seconds ran out made the pass
// count flip between one and two as the host's speed drifted, with
// different figures for each.  A second pass would also run on more
// memory: every server keys experiments' package-level model and trace
// caches apart with a Progress of its own, and the package never frees
// them, so each pass leaves its model networks resident.
func runCold(b *bench) error {
	fullPath, viewPath := filepath.Join(b.o.dir, "full.tl"), filepath.Join(b.o.dir, "view.tl")
	var pack crawlResult
	err := b.setup(func(i int) error {
		r, err := packPair(b, b.o.dir)
		if err != nil {
			return err
		}
		if i == 0 {
			pack = r
		}
		b.op(r.digest == pack.digest, "set-up %d: packed pair differs from set-up 0", i)
		return nil
	})
	if err != nil {
		return err
	}

	b.startMeasure()
	plain, err := coldPass(b, fullPath, viewPath, nil)
	if err != nil {
		return err
	}
	b.set("peak_rss_bytes_per_user", peakRSSPerUser(pack.users))
	b.set("pass_s", plain.pass().Seconds())
	b.set("throughput_per_s", float64(len(figureIDs))/plain.allFigures.Seconds())
	b.set("latency_p50_us", usOf(plain.firstFigure))
	b.set("packed_bytes_per_user", float64(pack.fullBytes+pack.viewBytes)/float64(pack.users))
	b.set("cold.mount_s", plain.mount.Seconds())
	b.set("cold.first_figure_s", plain.firstFigure.Seconds())
	b.set("cold.all_figures_s", plain.allFigures.Seconds())
	b.set("cold.stream_fold_rows_per_s", float64(plain.rows)/plain.walk.Seconds())

	if b.tr != nil {
		var tracedPass coldResult
		err := b.traced(func() error {
			root := b.tr.Root("cold-mount.pass")
			defer root.End()
			var err error
			if tracedPass, err = coldPass(b, fullPath, viewPath, root); err != nil {
				return err
			}
			return replicaPass(b, tracedPass.full, tracedPass.view, tracedPass.bodies, root)
		})
		if err != nil {
			return err
		}
		b.layerSelf("snapstore.load", "sanserve.mount_validate", "snapstore.cursor_next",
			"experiments.feed", "experiments.measure", "experiments.measure_diam", "experiments.build")
		for _, id := range figureIDs {
			b.layerSelf("experiments.fig." + id)
		}
		// The server's own time around a figure, outside the driver:
		// the 23 repeated requests, each a result-cache hit (middleware,
		// mux, handler, audit, cache lookup).  The miss path's
		// own extra work (admission gate, single-flight, per-series copy
		// and encoding) is not measured: subtracting the multi-second
		// driver sums from the request sums would leave only their noise.
		b.set("sanserve.figure_overhead_s", tracedPass.hits.Seconds())
		b.set("cold-mount.unaccounted_s", b.selfMedian("cold-mount.pass"))
		// Only the server-side part of the traced pass is comparable to
		// the untraced pass just before it; the replica's own time is in
		// its spans.
		b.set("trace.overhead_ratio", tracedPass.pass().Seconds()/plain.pass().Seconds()-1)
	}
	b.endMeasure()
	return nil
}
