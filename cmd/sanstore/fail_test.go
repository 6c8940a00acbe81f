package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputErrorsPropagate pins the write-error path of extract:
// renaming over a blocked destination must fail loudly and leave no
// partial or temp files — a full disk must never look like success
// with a silently truncated file.
func TestOutputErrorsPropagate(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	tlPath, _ := packFixture(t, dir, 2, 3, 1)

	blocked := filepath.Join(dir, "blocked.san")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := run("extract", []string{tlPath, "-day", "1", "-out", blocked}, &out); err == nil {
		t.Error("extract over a directory must fail")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the timeline and the blocking directory: no temp files.
	if len(entries) != 2 {
		t.Errorf("unexpected files left behind: %v", entries)
	}
}
