package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicio"
	"repro/internal/gplus"
	"repro/internal/san"
	"repro/internal/snapstore"
)

// ckptEvery is the checkpoint cadence of the crawl-stream workload, the
// `sangen -checkpoint-every 7` setting.
const ckptEvery = 7

// gplusConfig is the simulation every workload streams or reads: the
// calibrated default model at the benchmark's scale and seed, in the
// default sequential rng mode.
func gplusConfig(o options) gplus.Config {
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = o.scale
	cfg.Seed = o.seed
	return cfg
}

// pairDigest identifies a packed full+view timeline pair.
type pairDigest struct{ full, view string }

// crawlResult is one streamed crawl.
type crawlResult struct {
	wall       time.Duration
	users      int
	dayLat     []time.Duration // per simulated day, hook to hook
	digest     pairDigest
	fullBytes  int64
	viewBytes  int64
	stateBytes int64
}

// streamCrawl runs one sequential gplus simulation streamed into two
// on-disk StreamWriters (full SAN and crawl view) under dir, taking a
// checkpoint every ckpt days (0 = never) the way sangen does: flush
// the spills, then write the simulator state through atomicio.  The
// finished files stay in dir as full.tl and view.tl.
//
// A traced crawl (tr != nil) runs under a crawl-stream.pass root span
// and detaches the view sink: the per-day hook builds the crawl view
// itself and appends it, so view building and view encoding get spans
// of their own.  Each day's simulation runs inside a gplus.phaseN span
// whose child is the full sink's append.
func streamCrawl(cfg gplus.Config, dir string, ckpt int, tr *Tracer) (crawlResult, error) {
	var res crawlResult
	fullPath, viewPath := filepath.Join(dir, "full.tl"), filepath.Join(dir, "view.tl")
	start := time.Now()
	root := tr.Root("crawl-stream.pass")
	fw, err := snapstore.NewStreamWriter(fullPath)
	if err != nil {
		return res, err
	}
	defer fw.Abort()
	vw, err := snapstore.NewStreamWriter(viewPath)
	if err != nil {
		return res, err
	}
	defer vw.Abort()
	sim := gplus.New(cfg)

	phase := root.Child(phaseSpan(cfg, 1))
	var full, view snapstore.DaySink = fw, vw
	if root != nil {
		full = &timedSink{DaySink: fw, parent: &phase, name: "snapstore.full_append"}
		view = nil
	}
	last := start
	err = sim.StreamTimelines(1, 0, full, view, func(day int, _, _ *san.SAN) error {
		now := time.Now()
		res.dayLat = append(res.dayLat, now.Sub(last))
		last = now
		phase.End()
		if root != nil {
			var v *san.SAN
			root.Do("gplus.crawl_view", func() error { v = sim.CrawlView(); return nil })
			if err := root.Do("snapstore.view_append", func() error { return vw.Append(v) }); err != nil {
				return err
			}
		}
		if ckpt > 0 && day%ckpt == 0 && day < cfg.Days {
			n, err := checkpoint(sim, fw, vw, filepath.Join(dir, "checkpoint.bin"), root)
			if err != nil {
				return err
			}
			res.stateBytes += n
		}
		if day < cfg.Days {
			phase = root.Child(phaseSpan(cfg, day+1))
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	err = root.Do("snapstore.finalize", func() error {
		if err := fw.Finalize(); err != nil {
			return err
		}
		return vw.Finalize()
	})
	if err != nil {
		return res, err
	}
	res.wall = time.Since(start)
	root.End()
	res.users = sim.G.NumSocial()
	if err := os.Remove(filepath.Join(dir, "checkpoint.bin")); err != nil && !os.IsNotExist(err) {
		return res, err
	}
	if res.digest.full, res.fullBytes, err = fileDigest(fullPath); err != nil {
		return res, err
	}
	res.digest.view, res.viewBytes, err = fileDigest(viewPath)
	return res, err
}

// checkpoint flushes both spills (the durability barrier) and then
// atomically persists the simulator state, returning the state size.
func checkpoint(sim *gplus.Simulator, fw, vw *snapstore.StreamWriter, path string, root *Region) (int64, error) {
	err := root.Do("snapstore.flush", func() error {
		if err := fw.Flush(); err != nil {
			return err
		}
		return vw.Flush()
	})
	if err != nil {
		return 0, err
	}
	var n int64
	err = root.Do("gplus.write_state", func() error {
		return atomicio.WriteFile(path, func(w io.Writer) error {
			cw := &countingWriter{w: w}
			err := sim.WriteState(cw)
			n = cw.n
			return err
		})
	})
	return n, err
}

// phaseSpan names the span of a simulated day by the paper's phase.
func phaseSpan(cfg gplus.Config, day int) string {
	return fmt.Sprintf("gplus.phase%d", int(cfg.PhaseOf(day))+1)
}

// timedSink wraps a DaySink so each Append runs in a span under the
// currently open day span.
type timedSink struct {
	snapstore.DaySink
	parent **Region
	name   string
}

func (s *timedSink) Append(g *san.SAN) error {
	sp := (*s.parent).Child(s.name)
	err := s.DaySink.Append(g)
	sp.End()
	return err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func fileDigest(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// referenceDigest packs the seed's timeline pair in memory through
// gplus.RunTimelines (snapstore.Builder, not the streaming writer) and
// digests the serialized bytes: the recorded digest every streamed
// crawl of the seed must reproduce.
func referenceDigest(cfg gplus.Config) (pairDigest, error) {
	full, view, err := gplus.New(cfg).RunTimelines(nil)
	if err != nil {
		return pairDigest{}, err
	}
	var d pairDigest
	for _, x := range []struct {
		tl  *snapstore.Timeline
		out *string
	}{{full, &d.full}, {view, &d.view}} {
		h := sha256.New()
		if _, err := x.tl.WriteTo(h); err != nil {
			return d, err
		}
		*x.out = hex.EncodeToString(h.Sum(nil))
	}
	return d, nil
}

// runCrawl is the crawl-stream workload: the write path.  Set-up
// records the seed's reference digest; each measured pass streams a
// fresh 98-day crawl to disk with checkpoints every 7 days.  A traced
// run alternates untraced and traced passes.
func runCrawl(b *bench) error {
	cfg := gplusConfig(b.o)
	var ref pairDigest
	err := b.setup(func(i int) error {
		d, err := referenceDigest(cfg)
		if err != nil {
			return err
		}
		if i == 0 {
			ref = d
		}
		b.op(d == ref, "set-up %d: reference digest differs from set-up 0", i)
		return nil
	})
	if err != nil {
		return err
	}

	// overheads holds, for each traced pass, its wall time over that of
	// the untraced pass just before it, minus 1: adjacent passes, so
	// host drift over the run does not read as tracing cost.
	var plain []crawlResult
	var overheads []float64
	var prevWall time.Duration // the last untraced pass, 0 if it failed its check
	b.startMeasure()
	start := time.Now()
	for i := 0; ; i++ {
		isTraced := b.tr != nil && i%2 == 1
		var res crawlResult
		var err error
		if isTraced {
			err = b.traced(func() error {
				var err error
				res, err = streamCrawl(cfg, b.o.dir, ckptEvery, b.tr)
				return err
			})
		} else {
			res, err = streamCrawl(cfg, b.o.dir, ckptEvery, nil)
		}
		if err != nil {
			return err
		}
		ok := b.op(res.digest == ref, "pass %d: streamed timelines %v differ from the reference %v", i, res.digest, ref)
		switch {
		case !isTraced && ok:
			plain = append(plain, res)
			prevWall = res.wall
		case !isTraced:
			prevWall = 0
		case ok && prevWall > 0:
			overheads = append(overheads, res.wall.Seconds()/prevWall.Seconds()-1)
		}
		if time.Since(start) >= b.o.seconds && (b.tr == nil || i >= 1) {
			break
		}
	}
	b.endMeasure()
	if len(plain) == 0 {
		return fmt.Errorf("no pass produced the reference timelines")
	}

	var walls, rates []float64
	var days []time.Duration
	for _, r := range plain {
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, float64(r.users)/r.wall.Seconds())
		days = append(days, r.dayLat...)
	}
	sortDurations(days)
	r0 := plain[0]
	packed := float64(r0.fullBytes+r0.viewBytes) / float64(r0.users)
	rss := peakRSSPerUser(r0.users)
	b.set("pass_s", median(walls))
	b.set("throughput_per_s", median(rates))
	b.set("latency_p50_us", usOf(percentile(days, 0.5)))
	b.set("peak_rss_bytes_per_user", rss)
	b.set("packed_bytes_per_user", packed)
	b.set("stream.users_per_s", median(rates))
	b.set("stream.peak_rss_bytes_per_user", rss)
	b.set("stream.packed_bytes_per_user", packed)
	b.set("snapstore.full_bytes", float64(r0.fullBytes))
	b.set("snapstore.view_bytes", float64(r0.viewBytes))
	b.set("gplus.state_bytes", float64(r0.stateBytes))

	if b.tr != nil {
		b.layerSelf("gplus.phase1", "gplus.phase2", "gplus.phase3", "gplus.crawl_view",
			"gplus.write_state", "snapstore.full_append", "snapstore.view_append",
			"snapstore.flush", "snapstore.finalize")
		b.set("crawl-stream.unaccounted_s", b.selfMedian("crawl-stream.pass"))
		b.set("trace.overhead_ratio", median(overheads))
	}
	return nil
}
