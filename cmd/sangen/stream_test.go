package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStreamKillResumeBitwiseIdentical is the CLI acceptance path for
// checkpoint/resume: a run interrupted at day 30 (the deterministic
// stand-in for a kill) and resumed from its checkpoint directory must
// finalize to a file bitwise-identical to an uninterrupted run.
func TestStreamKillResumeBitwiseIdentical(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.tl")
	got := filepath.Join(dir, "got.tl")
	var buf bytes.Buffer

	base := []string{"-model", "gplus", "-scale", "3", "-seed", "7"}
	if err := runGenerate(append(base, "-stream-out", ref), &buf); err != nil {
		t.Fatalf("uninterrupted stream: %v", err)
	}
	err := runGenerate(append(base, "-stream-out", got, "-checkpoint-every", "10", "-stop-after", "30"), &buf)
	if err != nil {
		t.Fatalf("interrupted stream: %v", err)
	}
	if _, err := os.Stat(got); !os.IsNotExist(err) {
		t.Fatalf("interrupted run published a final file (stat err: %v)", err)
	}
	ckptDir := got + ".ckpt"
	if _, err := os.Stat(filepath.Join(ckptDir, ckptFile)); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}

	if err := runGenerate([]string{"-resume", ckptDir}, &buf); err != nil {
		t.Fatalf("resume: %v", err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	have, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Fatalf("resumed run differs from uninterrupted run (%d vs %d bytes)", len(have), len(want))
	}
	// A finished run cleans up after itself: no checkpoint, no spill.
	if _, err := os.Stat(ckptDir); !os.IsNotExist(err) {
		t.Errorf("checkpoint directory survived a finished run (stat err: %v)", err)
	}
	if _, err := os.Stat(got + ".spill"); !os.IsNotExist(err) {
		t.Errorf("spill file survived a finished run (stat err: %v)", err)
	}
}

// TestStreamObservedMatchesCrawlView checks the -observed stream packs
// the crawl view, not the full SAN: it must be smaller (22% declare).
func TestStreamObservedMatchesCrawlView(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.tl")
	view := filepath.Join(dir, "view.tl")
	var buf bytes.Buffer
	base := []string{"-model", "gplus", "-scale", "3", "-seed", "7"}
	if err := runGenerate(append(base, "-stream-out", full), &buf); err != nil {
		t.Fatal(err)
	}
	if err := runGenerate(append(base, "-observed", "-stream-out", view), &buf); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(full)
	if err != nil {
		t.Fatal(err)
	}
	vi, err := os.Stat(view)
	if err != nil {
		t.Fatal(err)
	}
	if vi.Size() >= fi.Size() {
		t.Errorf("observed stream (%d bytes) not smaller than full stream (%d bytes)", vi.Size(), fi.Size())
	}
}

// TestStreamFlagValidation covers the flag interlocks and the resume
// error paths.
func TestStreamFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := runGenerate([]string{"-model", "san", "-n", "50", "-stream-out", "x.tl"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "gplus") {
		t.Errorf("-stream-out with -model san: got %v", err)
	}
	if err := runGenerate([]string{"-model", "gplus", "-checkpoint-every", "5"}, &buf); err == nil {
		t.Error("-checkpoint-every without -stream-out must fail")
	}
	if err := runGenerate([]string{"-resume", filepath.Join(t.TempDir(), "nope")}, &buf); err == nil {
		t.Error("-resume on a missing directory must fail")
	}
	ckpt := t.TempDir()
	if err := os.WriteFile(filepath.Join(ckpt, ckptFile), []byte("garbage bytes here"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runGenerate([]string{"-resume", ckpt}, &buf); err == nil {
		t.Error("-resume on a corrupt checkpoint must fail")
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
