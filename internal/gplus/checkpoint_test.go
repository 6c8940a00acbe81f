package gplus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/snapstore"
)

func ckptConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 40
	cfg.DailyBase = 120
	return cfg
}

func packBoth(t *testing.T, s *Simulator, startDay, stopDay int, full, view *snapstore.Live) {
	t.Helper()
	if err := s.StreamTimelines(startDay, stopDay, full, view, nil); err != nil {
		t.Fatalf("StreamTimelines(%d, %d): %v", startDay, stopDay, err)
	}
}

func timelineBytes(t *testing.T, b *snapstore.Live) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := b.Timeline().WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// TestCheckpointResumeDeterminism is the core resume guarantee: a run
// checkpointed at day k and resumed in a fresh simulator produces
// packed timelines bitwise-identical to the uninterrupted run.
func TestCheckpointResumeDeterminism(t *testing.T) {
	cfg := ckptConfig()

	refFull, refView := snapstore.NewLive(), snapstore.NewLive()
	packBoth(t, New(cfg), 1, 0, refFull, refView)
	wantFull := timelineBytes(t, refFull)
	wantView := timelineBytes(t, refView)

	for _, k := range []int{1, 13, cfg.Days - 1} {
		gotFull, gotView := snapstore.NewLive(), snapstore.NewLive()

		first := New(cfg)
		packBoth(t, first, 1, k, gotFull, gotView)
		if first.Day() != k {
			t.Fatalf("after stopping at day %d, Day() = %d", k, first.Day())
		}
		var state bytes.Buffer
		if err := first.WriteState(&state); err != nil {
			t.Fatalf("WriteState at day %d: %v", k, err)
		}

		resumed, err := ReadSimulator(cfg, &state, NewScratch())
		if err != nil {
			t.Fatalf("ReadSimulator at day %d: %v", k, err)
		}
		if resumed.Day() != k {
			t.Fatalf("resumed Day() = %d, want %d", resumed.Day(), k)
		}
		packBoth(t, resumed, k+1, 0, gotFull, gotView)

		if !bytes.Equal(timelineBytes(t, gotFull), wantFull) {
			t.Errorf("checkpoint at day %d: full timeline diverges from uninterrupted run", k)
		}
		if !bytes.Equal(timelineBytes(t, gotView), wantView) {
			t.Errorf("checkpoint at day %d: view timeline diverges from uninterrupted run", k)
		}
	}
}

// TestCheckpointResumeRunFrom covers the non-streaming resume path:
// Run to the horizon vs checkpoint + runRange over the remaining days,
// compared via snapshots.
func TestCheckpointResumeRunFrom(t *testing.T) {
	cfg := ckptConfig()
	want := New(cfg).Run(nil)

	const k = 17
	first := New(cfg)
	first.runRange(1, k, nil)
	var state bytes.Buffer
	if err := first.WriteState(&state); err != nil {
		t.Fatalf("WriteState: %v", err)
	}
	resumed, err := ReadSimulator(cfg, &state, NewScratch())
	if err != nil {
		t.Fatalf("ReadSimulator: %v", err)
	}
	got := resumed.runRange(k+1, cfg.Days, nil)

	if !bytes.Equal(snapstore.EncodeSnapshot(want, nil), snapstore.EncodeSnapshot(got, nil)) {
		t.Errorf("resumed Run diverges from uninterrupted Run")
	}
}

// TestCheckpointRoundTripState pins that a restored simulator writes
// back the exact same state bytes: nothing is lost or reordered in the
// decode/encode cycle.
func TestCheckpointRoundTripState(t *testing.T) {
	cfg := ckptConfig()
	s := New(cfg)
	s.runRange(1, 9, nil)
	var first bytes.Buffer
	if err := s.WriteState(&first); err != nil {
		t.Fatalf("WriteState: %v", err)
	}
	restored, err := ReadSimulator(cfg, bytes.NewReader(first.Bytes()), NewScratch())
	if err != nil {
		t.Fatalf("ReadSimulator: %v", err)
	}
	var second bytes.Buffer
	if err := restored.WriteState(&second); err != nil {
		t.Fatalf("WriteState (restored): %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("state bytes changed across a restore round trip (%d vs %d bytes)", first.Len(), second.Len())
	}
}

func TestReadSimulatorRejectsGarbage(t *testing.T) {
	if _, err := ReadSimulator(ckptConfig(), strings.NewReader("not a checkpoint"), NewScratch()); err == nil {
		t.Fatal("ReadSimulator accepted garbage input")
	}
	s := New(ckptConfig())
	s.runRange(1, 3, nil)
	var state bytes.Buffer
	if err := s.WriteState(&state); err != nil {
		t.Fatalf("WriteState: %v", err)
	}
	truncated := state.Bytes()[:state.Len()/2]
	if _, err := ReadSimulator(ckptConfig(), bytes.NewReader(truncated), NewScratch()); err == nil {
		t.Fatal("ReadSimulator accepted a truncated checkpoint")
	}
}

// checkpointAt runs a fresh ckptConfig simulation through day k and
// returns its WriteState bytes.
func checkpointAt(t *testing.T, k int) []byte {
	t.Helper()
	s := New(ckptConfig())
	s.runRange(1, k, nil)
	var state bytes.Buffer
	if err := s.WriteState(&state); err != nil {
		t.Fatalf("WriteState: %v", err)
	}
	return state.Bytes()
}

// TestSequentialBytesPinned freezes the sequential stream's outputs:
// the GPCK state at day 9 (header "GPCK", version 2, mode 0, salt 0)
// and both packed timelines of the full run.  Existing checkpoints and
// timelines stay valid only while these digests hold.
func TestSequentialBytesPinned(t *testing.T) {
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	state := checkpointAt(t, 9)
	if got, want := hex.EncodeToString(state[:7]), "4750434b020000"; got != want {
		t.Errorf("state header %s, want %s", got, want)
	}
	full, view := snapstore.NewLive(), snapstore.NewLive()
	packBoth(t, New(ckptConfig()), 1, 0, full, view)
	for _, c := range []struct {
		name string
		got  string
		want string
	}{
		{"day-9 state", digest(state), "250c175842ab4731c607012db8a759374ddb41610a3c326b62b114f5ada54d5e"},
		{"full timeline", digest(timelineBytes(t, full)), "bbc18be92c60527f20b028c989a19abf47bd34f255481596984201124a62f596"},
		{"view timeline", digest(timelineBytes(t, view)), "68e1f5d300f8d7ddcf871b1430f401feec356548a4878fc727ebcd7fe0bb78db"},
	} {
		if c.got != c.want {
			t.Errorf("%s sha256 %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestCheckpointRejectsSplitMode pins that a state whose mode byte
// names the removed split rng mode fails loudly instead of resuming a
// stream the simulator can no longer draw.
func TestCheckpointRejectsSplitMode(t *testing.T) {
	state := checkpointAt(t, 5)
	state[5] = 1 // mode byte, right after magic and version
	_, err := ReadSimulator(ckptConfig(), bytes.NewReader(state), NewScratch())
	if err == nil || !strings.Contains(err.Error(), "split") {
		t.Fatalf("ReadSimulator on a mode-1 state: err = %v, want an error naming the split mode", err)
	}
}

// TestCheckpointV1StateLoads pins backward compatibility: a version 1
// state (no mode byte or salt) restores to the same simulator as its
// version 2 twin.
func TestCheckpointV1StateLoads(t *testing.T) {
	v2 := checkpointAt(t, 5)
	v1 := append([]byte("GPCK\x01"), v2[7:]...) // drop mode byte 0 and salt uvarint 0
	s, err := ReadSimulator(ckptConfig(), bytes.NewReader(v1), NewScratch())
	if err != nil {
		t.Fatalf("ReadSimulator on a v1 state: %v", err)
	}
	var again bytes.Buffer
	if err := s.WriteState(&again); err != nil {
		t.Fatalf("WriteState: %v", err)
	}
	if !bytes.Equal(again.Bytes(), v2) {
		t.Error("v1 state restored to a different simulator than its v2 twin")
	}
}
