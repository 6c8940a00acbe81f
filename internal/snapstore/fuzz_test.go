package snapstore

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/san"
)

// Fuzz targets for the two binary decoders.  The hand-rolled corrupt
// cases in roundtrip_test.go are the historical record of known
// failure classes; these targets generalize them — the decoders must
// never panic or over-allocate on arbitrary bytes, and anything they
// accept must be internally consistent and round-trip cleanly.
// Committed regression inputs live under testdata/fuzz/; CI runs a
// short fuzz smoke on top (ci/fuzzsmoke.sh).

// FuzzDecodeSnapshot: arbitrary bytes either error or decode into a
// valid SAN that re-encodes to the identical canonical record.
func FuzzDecodeSnapshot(f *testing.F) {
	rng := rand.New(rand.NewPCG(3, 5))
	for i := 0; i < 4; i++ {
		f.Add(EncodeSnapshot(RandomSAN(rng), nil))
	}
	// Known corrupt shapes, so mutation starts from the error paths too.
	f.Add([]byte{tagSnapshot, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{tagSnapshot, 2, 0, 1, 7, 0, 0, 0})
	f.Add([]byte{tagDelta, 1, 0, 1, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded SAN is invalid: %v", err)
		}
		re := EncodeSnapshot(g, nil)
		g2, err := DecodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if err := SameSAN(g, g2); err != nil {
			t.Fatalf("snapshot round trip diverged: %v", err)
		}
		// Accepted input is already canonical (sorted lists), so the
		// second encode must be byte-identical.
		if !bytes.Equal(re, EncodeSnapshot(g2, nil)) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}

// FuzzDecodeTimeline: arbitrary bytes either fail to parse as a
// timeline container or yield a timeline whose every day either
// reconstructs into a valid SAN or errors — never panics.  A lockstep
// cursor over two copies of the timeline (whose sources apply each
// day concurrently) must fail exactly when the reconstruction does,
// and otherwise end on the same counts in both sources.
func FuzzDecodeTimeline(f *testing.F) {
	rng := rand.New(rand.NewPCG(7, 9))
	for i := 0; i < 3; i++ {
		b := NewLive()
		g := RandomSAN(rng)
		if err := b.Append(g); err != nil {
			f.Fatal(err)
		}
		// Grow the SAN append-only so later days pack as deltas.
		n := g.NumSocial()
		g.AddSocialNodes(2)
		for j := 0; j < 4; j++ {
			g.AddSocialEdge(san.NodeID(rng.IntN(n+2)), san.NodeID(rng.IntN(n+2)))
		}
		if err := b.Append(g); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := b.Timeline().WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("SANTL\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tl, err := ReadTimeline(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tl.NumDays() == 0 {
			return
		}
		g, err := tl.ReconstructAt(tl.NumDays() - 1)
		gs, walkErr := walkToEnd(tl, tl)
		if (err == nil) != (walkErr == nil) {
			t.Fatalf("ReconstructAt error %v, but a two-source cursor walk error %v", err, walkErr)
		}
		if err != nil {
			return // corrupt day records are rejected lazily
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("reconstructed SAN is invalid: %v", err)
		}
		for i, h := range gs {
			if h.Stats() != g.Stats() {
				t.Fatalf("cursor source %d ends on %+v, ReconstructAt on %+v", i, h.Stats(), g.Stats())
			}
		}
	})
}

// walkToEnd walks a lockstep cursor over tls through every day and
// returns the final day's graphs, or the first error.
func walkToEnd(tls ...*Timeline) ([]*san.SAN, error) {
	cur, err := OpenCursorN(tls)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var gs []*san.SAN
	for {
		_, next, _, err := cur.Next(context.Background())
		if errors.Is(err, ErrDone) {
			return gs, nil
		}
		if err != nil {
			return nil, err
		}
		gs = next
	}
}
