package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gplus"
	"repro/internal/san"
	"repro/internal/snapstore"
)

// TestPackLsStatExtractRoundTrip drives the CLI end to end through
// the shared run() helper: pack a small timeline to disk, list it,
// stat a day, extract that day as san text, and check the extracted
// graph against a direct reconstruction.
func TestPackLsStatExtractRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tlPath := filepath.Join(dir, "mini.tl")
	sanPath := filepath.Join(dir, "day5.san")

	var out bytes.Buffer
	err := run("pack", []string{"-out", tlPath, "-scale", "5", "-days", "8", "-seed", "3"}, &out)
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	if !strings.Contains(out.String(), "packed 8 days") {
		t.Fatalf("pack report: %q", out.String())
	}

	out.Reset()
	if err := run("ls", []string{tlPath}, &out); err != nil {
		t.Fatalf("ls: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 10 { // header + 8 days + total
		t.Fatalf("ls printed %d lines:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[1], "snapshot") || !strings.Contains(lines[2], "delta") {
		t.Fatalf("ls kinds wrong:\n%s", out.String())
	}

	out.Reset()
	if err := run("stat", []string{tlPath, "-day", "5"}, &out); err != nil {
		t.Fatalf("stat: %v", err)
	}
	if !strings.Contains(out.String(), "day               5 of 8") {
		t.Fatalf("stat report:\n%s", out.String())
	}

	out.Reset()
	if err := run("extract", []string{tlPath, "-day", "5", "-out", sanPath}, &out); err != nil {
		t.Fatalf("extract: %v", err)
	}

	// The extracted text graph must equal the direct reconstruction.
	tl, err := snapstore.LoadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tl.ReconstructAt(4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := openSANFile(sanPath)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats() != want.Stats() {
		t.Errorf("extracted stats %+v, want %+v", f.Stats(), want.Stats())
	}
	if f.Reciprocity() != want.Reciprocity() {
		t.Errorf("extracted reciprocity %v, want %v", f.Reciprocity(), want.Reciprocity())
	}

	// And the packed file must match an in-process pack at the same
	// parameters (the CLI adds no hidden state).
	cfg := gplus.DefaultConfig()
	cfg.DailyBase, cfg.Days, cfg.Seed = 5, 8, 3
	direct, _, err := gplus.New(cfg).RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Size() != tl.Size() || direct.NumDays() != tl.NumDays() {
		t.Errorf("CLI pack %d bytes/%d days, direct pack %d bytes/%d days",
			tl.Size(), tl.NumDays(), direct.Size(), direct.NumDays())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run("bogus", nil, &out); err != errUnknownCommand {
		t.Errorf("unknown command: got %v", err)
	}
	if err := run("pack", []string{"-scale", "5"}, &out); err == nil {
		t.Error("pack without -out must fail")
	}
	if err := run("ls", []string{filepath.Join(t.TempDir(), "missing.tl")}, &out); err == nil {
		t.Error("ls on a missing file must fail")
	}
	if err := run("stat", []string{}, &out); err == nil {
		t.Error("stat without a file argument must fail")
	}
}

func openSANFile(path string) (*san.SAN, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return san.Read(f)
}

// TestFlagParseErrorsReturn pins that subcommand flag errors and -h come
// back from run as values (exit codes 2 and 0) instead of exiting.
func TestFlagParseErrorsReturn(t *testing.T) {
	var out bytes.Buffer
	if err := run("pack", []string{"-bogus"}, &out); exitCode(err) != 2 {
		t.Errorf("pack -bogus: err = %v, exit code %d, want 2", err, exitCode(err))
	}
	if err := run("pack", []string{"-h"}, &out); err == nil || exitCode(err) != 0 {
		t.Errorf("pack -h: err = %v, exit code %d, want ErrHelp and 0", err, exitCode(err))
	}
}
