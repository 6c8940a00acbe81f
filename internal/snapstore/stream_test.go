package snapstore

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/san"
)

// growingDays returns numDays successive clones of an append-only
// evolving SAN — the input sequence every DaySink test packs.
func growingDays(seed uint64, numDays int) []*san.SAN {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	g := san.New(0, 0, 0)
	g.AddSocialNodes(8)
	days := make([]*san.SAN, 0, numDays)
	for day := 0; day < numDays; day++ {
		g.AddSocialNodes(1 + rng.IntN(3))
		a := g.AddAttrNode("value#"+strconv.Itoa(day), san.AttrType(rng.IntN(5)))
		n := g.NumSocial()
		for i := 0; i < 6; i++ {
			g.AddSocialEdge(san.NodeID(rng.IntN(n)), san.NodeID(rng.IntN(n)))
			g.AddAttrEdge(san.NodeID(rng.IntN(n)), a)
		}
		days = append(days, g.Clone())
	}
	return days
}

// TestStreamWriterMatchesBuilder is the byte-identity guarantee
// between the two DaySinks: streaming days to disk produces the exact
// bytes the in-memory Live sink holds.
func TestStreamWriterMatchesBuilder(t *testing.T) {
	days := growingDays(1, 14)
	path := filepath.Join(t.TempDir(), "tl.bin")

	b := NewLive()
	w, err := NewStreamWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	for day, g := range days {
		if err := b.Append(g); err != nil {
			t.Fatalf("live day %d: %v", day, err)
		}
		if err := w.Append(g); err != nil {
			t.Fatalf("stream day %d: %v", day, err)
		}
		if b.PackedBytes() != w.PackedBytes() {
			t.Fatalf("day %d: live packed %d bytes, stream %d", day, b.PackedBytes(), w.PackedBytes())
		}
		if w.NumDays() != day+1 {
			t.Fatalf("day %d: NumDays() = %d", day, w.NumDays())
		}
	}
	tl := b.Timeline()
	for i := 0; i < tl.NumDays(); i++ {
		if tl.DaySize(i) != w.DayLen(i) {
			t.Fatalf("day %d: live record %d bytes, stream %d", i, tl.DaySize(i), w.DayLen(i))
		}
	}
	if err := w.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}

	var want bytes.Buffer
	if _, err := tl.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streamed file differs from the Live encoding (%d vs %d bytes)", len(got), want.Len())
	}
	if _, err := os.Stat(path + spillSuffix); !os.IsNotExist(err) {
		t.Errorf("spill file survived Finalize (stat err: %v)", err)
	}

	// The streamed file loads like any packed timeline.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := ReadTimeline(f)
	if err != nil {
		t.Fatalf("ReadTimeline: %v", err)
	}
	final, err := loaded.ReconstructAt(loaded.NumDays() - 1)
	if err != nil {
		t.Fatalf("ReconstructAt: %v", err)
	}
	if err := SameSAN(days[len(days)-1], final); err != nil {
		t.Fatalf("final day reconstruction: %v", err)
	}
}

// TestStreamWriterResume interrupts a stream mid-run — including a
// torn trailing write past the checkpointed boundary — and verifies
// the resumed stream finalizes to bytes identical to an uninterrupted
// one.
func TestStreamWriterResume(t *testing.T) {
	days := growingDays(2, 16)
	const ckptDay = 9 // days 0..9 recorded at the checkpoint

	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.bin")
	ref, err := NewStreamWriter(refPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Abort()
	for _, g := range days {
		if err := ref.Append(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Finalize(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "tl.bin")
	w, err := NewStreamWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range days[:ckptDay+1] {
		if err := w.Append(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lens := w.DayLens()
	// Crash simulation: one more day reaches the spill (never the
	// checkpoint), then a torn partial record, then the process dies —
	// the writer is abandoned without Finalize or Abort.
	if err := w.Append(days[ckptDay+1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	torn, err := os.OpenFile(path+spillSuffix, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := torn.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	if err := torn.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := ResumeStreamWriter(path, lens, days[ckptDay])
	if err != nil {
		t.Fatalf("ResumeStreamWriter: %v", err)
	}
	defer r.Abort()
	if r.NumDays() != ckptDay+1 || r.PackedBytes() != sum(lens) {
		t.Fatalf("resumed writer reports %d days / %d bytes, want %d / %d",
			r.NumDays(), r.PackedBytes(), ckptDay+1, sum(lens))
	}
	for _, g := range days[ckptDay+1:] {
		if err := r.Append(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Finalize(); err != nil {
		t.Fatalf("Finalize after resume: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed stream differs from uninterrupted stream (%d vs %d bytes)", len(got), len(want))
	}
}

func sum(lens []int) int {
	n := 0
	for _, l := range lens {
		n += l
	}
	return n
}

// TestStreamWriterResumeErrors covers the guard rails: no recorded
// days, no spill file, and a spill shorter than the checkpoint claims.
func TestStreamWriterResumeErrors(t *testing.T) {
	days := growingDays(3, 2)
	path := filepath.Join(t.TempDir(), "tl.bin")

	if _, err := ResumeStreamWriter(path, nil, days[0]); err == nil {
		t.Error("resume with no recorded days should fail")
	}
	if _, err := ResumeStreamWriter(path, []int{10}, days[0]); err == nil {
		t.Error("resume without a spill file should fail")
	}
	w, err := NewStreamWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Append(days[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	short := []int{w.PackedBytes() + 1}
	if _, err := ResumeStreamWriter(path, short, days[0]); err == nil {
		t.Error("resume with a spill shorter than the checkpoint should fail")
	}
}

// TestStreamWriterLifecycleErrors pins the terminal-state behavior:
// empty Finalize fails, double Finalize fails, Append after Finalize
// fails, Abort removes the spill and is idempotent.
func TestStreamWriterLifecycleErrors(t *testing.T) {
	days := growingDays(4, 2)
	dir := t.TempDir()

	empty, err := NewStreamWriter(filepath.Join(dir, "empty.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Finalize(); err == nil {
		t.Error("finalizing an empty stream should fail")
	}
	empty.Abort()
	if _, err := os.Stat(filepath.Join(dir, "empty.bin") + spillSuffix); !os.IsNotExist(err) {
		t.Errorf("Abort left the spill behind (stat err: %v)", err)
	}
	empty.Abort() // idempotent

	path := filepath.Join(dir, "tl.bin")
	w, err := NewStreamWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(days[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(days[1]); err == nil {
		t.Error("Append after Finalize should fail")
	}
	if err := w.Finalize(); err == nil {
		t.Error("double Finalize should fail")
	}
}

// TestBuilderPackedBytesRunningTotal pins the in-memory sink's (Live's)
// O(1) running total against the ground truth (per-day record sizes):
// polling PackedBytes every day must stay linear, not rescans of all
// prior days — and, above all, correct.
func TestBuilderPackedBytesRunningTotal(t *testing.T) {
	b := NewLive()
	if b.PackedBytes() != 0 {
		t.Fatalf("empty live timeline reports %d packed bytes", b.PackedBytes())
	}
	total := 0
	for day, g := range growingDays(5, 10) {
		if err := b.Append(g); err != nil {
			t.Fatal(err)
		}
		tl := b.Timeline()
		total += tl.DaySize(day)
		if b.PackedBytes() != total {
			t.Fatalf("day %d: PackedBytes() = %d, record sizes sum to %d", day, b.PackedBytes(), total)
		}
	}
}
