package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gplus"
	"repro/internal/san"
	"repro/internal/snapstore"
)

// packFixture writes the full timeline of a small gplus run to dir as
// mini.tl, the file `sangen -stream-out` packs as PREFIX.full.tl, and
// returns its path and the in-memory timeline.
func packFixture(t *testing.T, dir string, scale, days int, seed uint64) (string, *snapstore.Timeline) {
	t.Helper()
	cfg := gplus.DefaultConfig()
	cfg.DailyBase, cfg.Days, cfg.Seed = scale, days, seed
	full, _, err := gplus.New(cfg).RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "mini.tl")
	if err := full.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path, full
}

// TestPackLsStatExtractRoundTrip drives the CLI end to end through
// the shared run() helper: list a small packed timeline, stat a day,
// extract that day as san text, and check the extracted graph against
// a direct reconstruction.
func TestPackLsStatExtractRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tlPath, tl := packFixture(t, dir, 5, 8, 3)
	sanPath := filepath.Join(dir, "day5.san")

	var out bytes.Buffer
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
	if want := fmt.Sprintf("total  %10d bytes over 8 days", tl.Size()); lines[9] != want {
		t.Fatalf("ls total %q, want %q", lines[9], want)
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
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	for _, cmd := range []string{"bogus", "pack"} {
		if err := run(cmd, nil, &out); err != errUnknownCommand {
			t.Errorf("%s: got %v, want errUnknownCommand", cmd, err)
		}
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
	tlPath, _ := packFixture(t, t.TempDir(), 2, 3, 1)
	var out bytes.Buffer
	for _, cmd := range []string{"stat", "extract"} {
		if err := run(cmd, []string{tlPath, "-bogus"}, &out); exitCode(err) != 2 {
			t.Errorf("%s -bogus: err = %v, exit code %d, want 2", cmd, err, exitCode(err))
		}
		if err := run(cmd, []string{tlPath, "-h"}, &out); err == nil || exitCode(err) != 0 {
			t.Errorf("%s -h: err = %v, exit code %d, want ErrHelp and 0", cmd, err, exitCode(err))
		}
	}
}
