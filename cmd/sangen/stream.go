package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicio"
	"repro/internal/experiments"
	"repro/internal/gplus"
	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/sanserve"
	"repro/internal/scenario"
	"repro/internal/snapstore"
)

// Streaming generation: `sangen -model gplus -stream-out PREFIX` packs
// one simulation's timeline pair straight to disk, the full SAN to
// PREFIX.full.tl and its crawl view to PREFIX.view.tl (the pair
// `sanserve -mount` takes), through two snapstore.StreamWriters
// instead of materializing them, so resident memory is bounded by the
// live network regardless of horizon or scale.  `-checkpoint-every N`
// additionally persists the complete simulator state every N days into
// PREFIX.ckpt/; a killed run continues with `sangen -resume
// PREFIX.ckpt` and produces both files bitwise-identical to an
// uninterrupted run.

// ckptMagic identifies a sangen checkpoint file.  Its trailing byte
// versions the framing (magic, header length, JSON header); the
// header's version field versions what the checkpoint records.
var ckptMagic = []byte{'S', 'A', 'N', 'C', 'K', 1}

// ckptVersion is the checkpoint layout written and resumed: version 2
// records both writers of the full+view pair.  Version 1 checkpoints,
// which recorded one writer of either role, are refused.
const ckptVersion = 2

// ckptFile is the single file inside the checkpoint directory.
const ckptFile = "checkpoint.bin"

// ckptMeta is the checkpoint's JSON header: everything the resume path
// needs before it can decode the simulator state that follows it —
// where the stream lives, how far each writer got, and the exact
// configuration (the state codec deliberately does not embed it).
type ckptMeta struct {
	Version     int          `json:"version"`
	Day         int          `json:"day"`
	StreamOut   string       `json:"stream_out"`
	Every       int          `json:"checkpoint_every"`
	FullDayLens []int        `json:"full_day_lens"`
	ViewDayLens []int        `json:"view_day_lens"`
	Config      gplus.Config `json:"config"`
}

// streamRun drives one streaming simulation segment (fresh or resumed)
// to its stop day, checkpointing along the way.
type streamRun struct {
	sim        *gplus.Simulator
	full, view *snapstore.StreamWriter
	prefix     string // -stream-out PREFIX
	ckptDir    string
	every      int    // checkpoint cadence in days; 0 = never
	serveAddr  string // with -serve: live /v1/stream tail address
}

// runStream starts a fresh streaming generation.
func runStream(cfg gplus.Config, prefix string, every, stopAfter int, progress bool, serveAddr string) error {
	fullPath, viewPath := scenario.PairFiles(prefix)
	full, err := snapstore.NewStreamWriter(fullPath)
	if err != nil {
		return err
	}
	view, err := snapstore.NewStreamWriter(viewPath)
	if err != nil {
		full.Abort()
		return err
	}
	r := &streamRun{
		sim:       gplus.New(cfg),
		full:      full,
		view:      view,
		prefix:    prefix,
		ckptDir:   prefix + ".ckpt",
		every:     every,
		serveAddr: serveAddr,
	}
	return r.run(1, stopAfter, progress)
}

// runResume continues a streaming generation from a checkpoint
// directory.  Configuration, output prefix and cadence all come from
// the checkpoint; only -stop-after, -progress and -serve apply to the
// new segment.
func runResume(dir string, stopAfter int, progress bool, serveAddr string) error {
	meta, state, err := openCheckpoint(dir)
	if err != nil {
		return err
	}
	sim, err := gplus.ReadSimulator(meta.Config, state, gplus.NewScratch())
	state.Close()
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if sim.Day() != meta.Day {
		return fmt.Errorf("resume: checkpoint header says day %d, state says day %d", meta.Day, sim.Day())
	}
	// Each delta encoder resumes against the network its writer last
	// packed: the full SAN, and the crawl view of it.
	fullPath, viewPath := scenario.PairFiles(meta.StreamOut)
	full, err := snapstore.ResumeStreamWriter(fullPath, meta.FullDayLens, sim.G)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	view, err := snapstore.ResumeStreamWriter(viewPath, meta.ViewDayLens, sim.CrawlView())
	if err != nil {
		full.Close()
		return fmt.Errorf("resume: %w", err)
	}
	r := &streamRun{
		sim:       sim,
		full:      full,
		view:      view,
		prefix:    meta.StreamOut,
		ckptDir:   dir,
		every:     meta.Every,
		serveAddr: serveAddr,
	}
	return r.run(meta.Day+1, stopAfter, progress)
}

func (r *streamRun) run(startDay, stopAfter int, progress bool) error {
	writers := []*snapstore.StreamWriter{r.full, r.view}
	// On any exit short of Finalize: with checkpointing on, keep the
	// spills (the latest checkpoint can resume them); without, remove
	// them.
	defer func() {
		for _, w := range writers {
			if r.every > 0 {
				w.Close()
			} else {
				w.Abort()
			}
		}
	}()
	cfg := r.sim.Cfg
	if progress {
		prog := obs.NewProgress("gplus")
		// Count only this segment's days, so a resumed run's ETA is
		// paced on work it actually did.
		prog.AddTotalDays(cfg.Days - startDay + 1)
		r.sim.Progress = prog
		stopTick := prog.Tick(2*time.Second, func(ps obs.ProgressSnapshot) {
			fmt.Fprintln(os.Stderr, "sangen:", ps)
		})
		defer stopTick()
	}
	stopDay := 0
	if stopAfter > 0 && stopAfter < cfg.Days {
		stopDay = stopAfter
	}
	var fullSink snapstore.DaySink = r.full
	if r.serveAddr != "" {
		// -serve: tee the packed full stream into an in-memory live
		// timeline and mount it on an HTTP server, so /v1/stream tails
		// the simulation while it runs.  Finish releases tailing clients
		// at the end of this segment; stopServe then drains and shuts
		// down.
		live := snapstore.NewLive()
		stopServe, err := serveLive(r.serveAddr, live)
		if err != nil {
			return err
		}
		defer stopServe()
		defer live.Finish()
		fullSink = snapstore.Tee(fullSink, live)
	}
	err := r.sim.StreamTimelines(startDay, stopDay, fullSink, r.view, func(day int, _, _ *san.SAN) error {
		if r.every <= 0 || day >= cfg.Days || (day%r.every != 0 && day != stopDay) {
			return nil
		}
		// Durability barrier: both spills must hold every checkpointed
		// day before the state that claims them reaches disk.
		for _, w := range writers {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		return r.writeCheckpoint()
	})
	if err != nil {
		return err
	}
	if stopDay > 0 {
		if r.every <= 0 {
			fmt.Fprintf(os.Stderr, "sangen: stopped after day %d; no -checkpoint-every, so this run cannot be resumed\n", stopDay)
			return nil
		}
		fmt.Fprintf(os.Stderr, "sangen: stopped after day %d/%d; resume with: sangen -resume %s\n",
			stopDay, cfg.Days, r.ckptDir)
		return nil
	}
	for _, w := range writers {
		if err := w.Finalize(); err != nil {
			return err
		}
	}
	if r.every > 0 {
		if err := os.RemoveAll(r.ckptDir); err != nil {
			return fmt.Errorf("removing finished checkpoint: %w", err)
		}
	}
	g := r.sim.G
	fullPath, viewPath := scenario.PairFiles(r.prefix)
	fmt.Fprintf(os.Stderr, "sangen: %d social nodes, %d social links, %d attribute nodes, %d attribute links; %d days packed to %s (%.1f MiB) and %s (%.1f MiB)\n",
		g.NumSocial(), g.NumSocialEdges(), g.NumAttrs(), g.NumAttrEdges(), r.full.NumDays(),
		fullPath, float64(r.full.PackedBytes())/(1<<20), viewPath, float64(r.view.PackedBytes())/(1<<20))
	return nil
}

// writeCheckpoint atomically persists the JSON header plus the full
// simulator state.  The previous checkpoint is replaced only by the
// rename, so a kill mid-write leaves the old one intact.
func (r *streamRun) writeCheckpoint() error {
	if err := os.MkdirAll(r.ckptDir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	meta := ckptMeta{
		Version:     ckptVersion,
		Day:         r.sim.Day(),
		StreamOut:   r.prefix,
		Every:       r.every,
		FullDayLens: r.full.DayLens(),
		ViewDayLens: r.view.DayLens(),
		Config:      r.sim.Cfg,
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return atomicio.WriteFile(filepath.Join(r.ckptDir, ckptFile), func(out io.Writer) error {
		hdr := append([]byte(nil), ckptMagic...)
		hdr = binary.AppendUvarint(hdr, uint64(len(metaJSON)))
		hdr = append(hdr, metaJSON...)
		if _, err := out.Write(hdr); err != nil {
			return err
		}
		return r.sim.WriteState(out)
	})
}

// openCheckpoint parses the checkpoint header and returns a reader
// positioned at the simulator state.
func openCheckpoint(dir string) (ckptMeta, io.ReadCloser, error) {
	f, err := os.Open(filepath.Join(dir, ckptFile))
	if err != nil {
		return ckptMeta{}, nil, fmt.Errorf("resume: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	fail := func(err error) (ckptMeta, io.ReadCloser, error) {
		f.Close()
		return ckptMeta{}, nil, err
	}
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fail(fmt.Errorf("resume: reading checkpoint header: %w", err))
	}
	if !bytes.Equal(magic, ckptMagic) {
		return fail(fmt.Errorf("resume: %s is not a sangen checkpoint (magic %q)", filepath.Join(dir, ckptFile), magic))
	}
	mlen, err := binary.ReadUvarint(br)
	if err != nil || mlen > 1<<20 {
		return fail(fmt.Errorf("resume: corrupt checkpoint header length"))
	}
	metaJSON := make([]byte, mlen)
	if _, err := io.ReadFull(br, metaJSON); err != nil {
		return fail(fmt.Errorf("resume: reading checkpoint header: %w", err))
	}
	var meta ckptMeta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return fail(fmt.Errorf("resume: corrupt checkpoint header: %w", err))
	}
	if meta.Version != ckptVersion {
		return fail(fmt.Errorf("resume: unsupported checkpoint version %d", meta.Version))
	}
	if meta.Day < 1 || len(meta.FullDayLens) != meta.Day || len(meta.ViewDayLens) != meta.Day {
		return fail(fmt.Errorf("resume: checkpoint header inconsistent: day %d with %d full and %d view day records",
			meta.Day, len(meta.FullDayLens), len(meta.ViewDayLens)))
	}
	return meta, readCloser{br, f}, nil
}

type readCloser struct {
	io.Reader
	io.Closer
}

// liveMountName is the mount a -serve run exposes; the tail URL is
// /v1/stream/live.
const liveMountName = "live"

// serveLive starts a sanserve instance with one live mount and returns
// a stop function that drains active streams and shuts the listener
// down.  The bound address is reported on stderr (useful with :0).
func serveLive(addr string, live *snapstore.Live) (stop func(), err error) {
	srv := sanserve.New(sanserve.Options{Cfg: experiments.QuickConfig()})
	if err := srv.MountLive(liveMountName, live); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-serve: %w", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go httpSrv.Serve(ln)
	fmt.Fprintf(os.Stderr, "sangen: live tail at http://%s/v1/stream/%s\n", ln.Addr(), liveMountName)
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// The live timeline is finished by the time we get here, so a
		// tailing client that lags the simulation frontier still has
		// buffered days to read; give active streams a grace window to
		// drain on their own done records before DrainStreams cancels
		// stragglers, then close the listener.
		for srv.ActiveStreams() > 0 && ctx.Err() == nil {
			time.Sleep(5 * time.Millisecond)
		}
		if err := srv.DrainStreams(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "sangen: draining live streams:", err)
		}
		httpSrv.Shutdown(ctx)
		srv.Close()
	}, nil
}
