package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gplus"
	"repro/internal/scenario"
	"repro/internal/snapstore"
)

// TestStreamKillResumeBitwiseIdentical is the CLI acceptance path for
// checkpoint/resume: a run interrupted at day 30 (the deterministic
// stand-in for a kill) and resumed from its checkpoint directory must
// finalize both files of the pair bitwise-identical to an
// uninterrupted run.  The full subtest compares the full timeline,
// whose encoder is re-seeded from the restored simulator's SAN; the
// observed subtest compares the crawl-view timeline, whose encoder is
// re-seeded from the restored crawl view.
func TestStreamKillResumeBitwiseIdentical(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref")
	got := filepath.Join(dir, "got")
	var buf bytes.Buffer

	base := []string{"-model", "gplus", "-scale", "3", "-seed", "7"}
	if err := runGenerate(append(base, "-stream-out", ref), &buf); err != nil {
		t.Fatalf("uninterrupted stream: %v", err)
	}
	err := runGenerate(append(base, "-stream-out", got, "-checkpoint-every", "10", "-stop-after", "30"), &buf)
	if err != nil {
		t.Fatalf("interrupted stream: %v", err)
	}
	gotFull, gotView := scenario.PairFiles(got)
	for _, p := range []string{gotFull, gotView} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("interrupted run published %s (stat err: %v)", filepath.Base(p), err)
		}
	}
	ckptDir := got + ".ckpt"
	if _, err := os.Stat(filepath.Join(ckptDir, ckptFile)); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}

	if err := runGenerate([]string{"-resume", ckptDir}, &buf); err != nil {
		t.Fatalf("resume: %v", err)
	}
	refFull, refView := scenario.PairFiles(ref)
	for _, c := range []struct {
		name      string
		want, got string
	}{
		{"full", refFull, gotFull},
		{"observed", refView, gotView},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(c.want)
			if err != nil {
				t.Fatal(err)
			}
			have, err := os.ReadFile(c.got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(have, want) {
				t.Errorf("resumed %s differs from the uninterrupted run (%d vs %d bytes)", filepath.Base(c.got), len(have), len(want))
			}
			// A finished run cleans up after itself: no spill for either file.
			if _, err := os.Stat(c.got + ".spill"); !os.IsNotExist(err) {
				t.Errorf("spill of %s survived a finished run (stat err: %v)", filepath.Base(c.got), err)
			}
		})
	}
	if _, err := os.Stat(ckptDir); !os.IsNotExist(err) {
		t.Errorf("checkpoint directory survived a finished run (stat err: %v)", err)
	}
}

// TestStreamPackPairMatchesRunTimelines checks that one -stream-out run
// packs both files of the pair with the bytes of the in-memory pack of
// the same configuration.
func TestStreamPackPairMatchesRunTimelines(t *testing.T) {
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = 3
	cfg.Seed = 7
	wantFull, wantView, err := gplus.New(cfg).RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(t.TempDir(), "pair")
	var buf bytes.Buffer
	if err := runGenerate([]string{"-model", "gplus", "-scale", "3", "-seed", "7", "-stream-out", prefix}, &buf); err != nil {
		t.Fatalf("stream: %v", err)
	}
	fullPath, viewPath := scenario.PairFiles(prefix)
	for _, c := range []struct {
		path string
		want *snapstore.Timeline
	}{
		{fullPath, wantFull},
		{viewPath, wantView},
	} {
		have, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if _, err := c.want.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(have, want.Bytes()) {
			t.Errorf("%s (%d bytes) differs from RunTimelines' timeline (%d bytes)", filepath.Base(c.path), len(have), want.Len())
		}
	}
	if wantView.Size() >= wantFull.Size() {
		t.Errorf("crawl view (%d bytes) not smaller than the full timeline (%d bytes)", wantView.Size(), wantFull.Size())
	}
}

// TestStreamFlagValidation covers the flag interlocks and the resume
// error paths.
func TestStreamFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := runGenerate([]string{"-model", "san", "-n", "50", "-stream-out", "x"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "gplus") {
		t.Errorf("-stream-out with -model san: got %v", err)
	}
	if err := runGenerate([]string{"-model", "gplus", "-checkpoint-every", "5"}, &buf); err == nil {
		t.Error("-checkpoint-every without -stream-out must fail")
	}
	prefix := filepath.Join(t.TempDir(), "obs")
	if err := runGenerate([]string{"-model", "gplus", "-scale", "3", "-observed", "-stream-out", prefix}, &buf); err == nil ||
		!strings.Contains(err.Error(), "-observed") {
		t.Errorf("-observed with -stream-out: got %v", err)
	}
	if entries, _ := os.ReadDir(filepath.Dir(prefix)); len(entries) != 0 {
		t.Errorf("refused -observed run left files behind: %v", entries)
	}
	if err := runGenerate([]string{"-resume", filepath.Join(t.TempDir(), "nope")}, &buf); err == nil {
		t.Error("-resume on a missing directory must fail")
	}

	// Bad checkpoints are refused before any simulator state is
	// decoded: garbage, a version-1 header (one writer of either role),
	// and day-length lists that disagree with the header's day.
	header := func(meta any) []byte {
		metaJSON, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		hdr := append([]byte(nil), ckptMagic...)
		hdr = binary.AppendUvarint(hdr, uint64(len(metaJSON)))
		return append(hdr, metaJSON...)
	}
	lens := func(n int) []int { return make([]int, n) }
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"garbage", []byte("garbage bytes here"), "not a sangen checkpoint"},
		{"version 1", header(map[string]any{
			"version": 1, "day": 3, "observed": false, "stream_out": "x",
			"checkpoint_every": 1, "day_lens": lens(3),
		}), "unsupported checkpoint version 1"},
		{"view day lengths", header(ckptMeta{
			Version: ckptVersion, Day: 3, StreamOut: "x", Every: 1,
			FullDayLens: lens(3), ViewDayLens: lens(2),
		}), "day 3 with 3 full and 2 view day records"},
		{"full day lengths", header(ckptMeta{
			Version: ckptVersion, Day: 3, StreamOut: "x", Every: 1,
			FullDayLens: lens(4), ViewDayLens: lens(3),
		}), "day 3 with 4 full and 3 view day records"},
	} {
		ckpt := t.TempDir()
		if err := os.WriteFile(filepath.Join(ckpt, ckptFile), c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runGenerate([]string{"-resume", ckpt}, &buf); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-resume on a %s checkpoint: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestGenerateOutputErrorsPropagate pins the Close/rename error path of
// -o: with the destination blocked by a directory, the write must fail
// loudly and leave no temp litter — not silently truncate.
func TestGenerateOutputErrorsPropagate(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "blocked.san")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runGenerate([]string{"-model", "san", "-n", "50", "-o", blocked}, &buf); err == nil {
		t.Fatal("writing over a directory must fail")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp litter left behind: %v", entries)
	}
	if err := runGenerate([]string{"-model", "san", "-n", "50", "-o", filepath.Join(dir, "no", "such", "dir.san")}, &buf); err == nil {
		t.Fatal("writing into a missing directory must fail")
	}
}

// TestFlagParseErrorsReturn pins that flag-parse failures come back as
// errors instead of exiting the process: unknown flags (including the
// removed -parallel and -pipeline) and -h all return from runGenerate
// and runSweep, and main maps them to exit codes 2 and 0.
func TestFlagParseErrorsReturn(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func([]string, io.Writer) error
		args []string
		code int
	}{
		{"generate -parallel", runGenerate, []string{"-model", "gplus", "-parallel"}, 2},
		{"generate -pipeline", runGenerate, []string{"-model", "gplus", "-stream-out", "x.tl", "-pipeline"}, 2},
		{"generate -h", runGenerate, []string{"-h"}, 0},
		{"sweep -parallel", runSweep, []string{"-parallel"}, 2},
		{"sweep -h", runSweep, []string{"-h"}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := c.run(c.args, &buf)
			var fe flagError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v, want a flag parse error", err)
			}
			if got := exitCode(err); got != c.code {
				t.Errorf("exitCode(%v) = %d, want %d", err, got, c.code)
			}
		})
	}
}

// TestProfileFlagsWriteFiles pins the -cpuprofile/-memprofile plumbing:
// a tiny run must leave non-empty pprof files behind.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	if err := runGenerate([]string{"-model", "san", "-n", "200",
		"-o", filepath.Join(dir, "out.san"), "-cpuprofile", cpu, "-memprofile", mem}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s missing: %v", filepath.Base(p), err)
		} else if fi.Size() == 0 {
			t.Errorf("profile %s is empty", filepath.Base(p))
		}
	}
}
