//go:build slow

package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/snapstore"
)

// TestStreamCrawlScaleBoundedRSS is the crawl-scale acceptance run for
// the streaming pack path: a `sangen -stream-out` run at a scale the
// in-memory Live sink cannot hold must complete with peak RSS bounded by
// the live network (not the timeline), and an interrupted twin of the
// same run, resumed from its checkpoint, must finalize to a
// bitwise-identical file.
//
// At the default scale (DailyBase 150000 -> ~5.1M users over 98 days)
// this simulates the full horizon twice and takes a long while on one
// core; run it explicitly with:
//
//	go test -tags slow -run TestStreamCrawlScaleBoundedRSS -timeout 12h ./cmd/sangen
//
// Two knobs scale it down for CI smoke (see ci/streamsmoke.sh):
//
//	SAN_STREAM_DAILY   gplus DailyBase (default 150000; users ~ 34x this)
//	SAN_STREAM_RSS_MB  peak-RSS budget in MiB (default 24576)
func TestStreamCrawlScaleBoundedRSS(t *testing.T) {
	daily := envInt(t, "SAN_STREAM_DAILY", 150000)
	budgetMB := envInt(t, "SAN_STREAM_RSS_MB", 24576)
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.tl")
	got := filepath.Join(dir, "got.tl")
	var out bytes.Buffer
	base := []string{"-model", "gplus", "-scale", strconv.Itoa(daily), "-seed", "42", "-progress"}

	// Reference: one uninterrupted streamed run.
	if err := runGenerate(append(base, "-stream-out", ref), &out); err != nil {
		t.Fatalf("streamed run: %v", err)
	}

	// Interrupted twin: stop halfway through the horizon (the
	// deterministic stand-in for a kill — the SIGKILL variant recovers
	// through the exact same torn-spill truncation path, exercised by
	// TestStreamWriterResume), then resume to completion.
	if err := runGenerate(append(base, "-stream-out", got,
		"-checkpoint-every", "10", "-stop-after", "49"), &out); err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	if err := runGenerate([]string{"-resume", got + ".ckpt", "-progress"}, &out); err != nil {
		t.Fatalf("resume: %v", err)
	}

	// Capture the peak before any verification below touches the full
	// timeline: the budget covers the streaming runs themselves.
	peak := obs.PeakRSS()
	if peak == 0 {
		t.Log("peak RSS unavailable (no procfs); skipping the budget assertion")
	} else if peak > int64(budgetMB)<<20 {
		t.Errorf("peak RSS %d MiB exceeds the %d MiB budget: streaming no longer bounds memory",
			peak>>20, budgetMB)
	}

	if !filesEqual(t, ref, got) {
		t.Error("resumed run is not bitwise-identical to the uninterrupted run")
	}

	// The packed artifact must cover the full horizon and reconstruct
	// to a network of the expected scale (~34 arrivals per DailyBase
	// unit; >= 5M social nodes at the default scale).
	tl, err := snapstore.LoadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tl.ReconstructAt(tl.NumDays() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 33 * daily; g.NumSocial() < want {
		t.Errorf("final day has %d social nodes, want >= %d", g.NumSocial(), want)
	}
	t.Logf("streamed %d days at DailyBase %d: %d social nodes, %d social links, %d timeline bytes, peak RSS %d MiB",
		tl.NumDays(), daily, g.NumSocial(), g.NumSocialEdges(), tl.Size(), peak>>20)
}

func envInt(t *testing.T, name string, def int) int {
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		t.Fatalf("%s=%q: want a positive integer", name, s)
	}
	return n
}

// filesEqual streams both files through fixed-size buffers: crawl-scale
// timelines must not be slurped into memory just to compare them.
func filesEqual(t *testing.T, a, b string) bool {
	fa, err := os.Open(a)
	if err != nil {
		t.Fatal(err)
	}
	defer fa.Close()
	fb, err := os.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	ba := make([]byte, 1<<20)
	bb := make([]byte, 1<<20)
	for {
		na, ea := io.ReadFull(fa, ba)
		nb, eb := io.ReadFull(fb, bb)
		if na != nb || !bytes.Equal(ba[:na], bb[:nb]) {
			return false
		}
		if ea == io.EOF || ea == io.ErrUnexpectedEOF || eb == io.EOF || eb == io.ErrUnexpectedEOF {
			return (ea == io.EOF || ea == io.ErrUnexpectedEOF) && (eb == io.EOF || eb == io.ErrUnexpectedEOF) && na == nb
		}
		if ea != nil {
			t.Fatal(ea)
		}
		if eb != nil {
			t.Fatal(eb)
		}
	}
}
