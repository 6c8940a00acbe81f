package snapstore

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/san"
)

// TestSnapshotRoundTripProperty is the serialization property test:
// for arbitrary SANs, text format ↔ SAN ↔ binary snapshot format all
// agree up to adjacency ordering.
func TestSnapshotRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 200; i++ {
		g := RandomSAN(rng)

		// SAN → text → SAN.
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatalf("case %d: text encode: %v", i, err)
		}
		fromText, err := san.Read(&buf)
		if err != nil {
			t.Fatalf("case %d: text decode: %v", i, err)
		}
		if err := SameSAN(g, fromText); err != nil {
			t.Fatalf("case %d: text round trip: %v", i, err)
		}

		// SAN (via text) → binary → SAN.
		fromBinary, err := DecodeSnapshot(EncodeSnapshot(fromText, nil))
		if err != nil {
			t.Fatalf("case %d: binary decode: %v", i, err)
		}
		if err := SameSAN(g, fromBinary); err != nil {
			t.Fatalf("case %d: binary round trip: %v", i, err)
		}
		if err := fromBinary.Validate(); err != nil {
			t.Fatalf("case %d: decoded SAN invalid: %v", i, err)
		}
	}
}

// TestDecodeSnapshotCorruptInputs feeds the binary decoder malformed
// records; every case must error rather than panic or succeed.
func TestDecodeSnapshotCorruptInputs(t *testing.T) {
	g := RandomSAN(rand.New(rand.NewPCG(3, 5)))
	good := EncodeSnapshot(g, nil)
	if _, err := DecodeSnapshot(good); err != nil {
		t.Fatalf("control: valid snapshot failed to decode: %v", err)
	}

	cases := map[string][]byte{
		"empty":       {},
		"wrong tag":   append([]byte{'X'}, good[1:]...),
		"delta tag":   append([]byte{tagDelta}, good[1:]...),
		"header only": good[:1],
		"truncated":   good[:len(good)-1],
		"trailing":    append(append([]byte{}, good...), 0x01),
		// A snapshot whose declared social count cannot be backed by the
		// remaining bytes (alloc-bomb guard).
		"huge count": {tagSnapshot, 0xff, 0xff, 0xff, 0xff, 0x7f},
		// numSocial=2, numAttrs=0, node 0 has neighbor 7 (out of range).
		"edge out of range": {tagSnapshot, 2, 0, 1, 7, 0, 0, 0},
		// node 0 lists neighbor 1 twice (zero delta).
		"duplicate neighbor": {tagSnapshot, 2, 0, 2, 1, 0, 0, 0, 0},
		// node 0 lists itself (self loop).
		"self loop": {tagSnapshot, 2, 0, 1, 0, 0, 0, 0},
		// numSocial=1, numAttrs=1 with invalid attribute type 200.
		"bad attr type": {tagSnapshot, 1, 1, 200, 1, 'x', 0, 0},
		// two attributes with the same name collapse to one ID.
		"duplicate attr name": {tagSnapshot, 1, 2, 0, 1, 'x', 0, 1, 'x', 0, 0},
		// attribute link targets attr 3 of 1.
		"attr link out of range": {tagSnapshot, 1, 1, 0, 1, 'x', 0, 1, 3},
	}
	for name, rec := range cases {
		if _, err := DecodeSnapshot(rec); err == nil {
			t.Errorf("%s: corrupt snapshot decoded without error", name)
		}
	}
}

// TestApplyDeltaCorruptInputs exercises the delta decoder's error
// paths against a one-node base.
func TestApplyDeltaCorruptInputs(t *testing.T) {
	base := func() *san.SAN {
		g := san.New(1, 0, 0)
		g.AddSocialNodes(1)
		return g
	}
	cases := map[string][]byte{
		"empty":        {},
		"snapshot tag": {tagSnapshot, 0, 0, 0, 0},
		"truncated":    {tagDelta, 1},
		// claims ~2^31 new nodes in a 6-byte record (alloc-bomb guard).
		"huge node count": {tagDelta, 0xff, 0xff, 0xff, 0xff, 0x07},
		// one new node, a social group for out-of-range node 5.
		"group out of range": {tagDelta, 1, 0, 1, 5, 1, 0, 0},
		// group for node 0 with an empty neighbor list.
		"empty group": {tagDelta, 1, 0, 1, 0, 0, 0},
		// duplicate edge 0->1 within one delta (zero list delta).
		"duplicate edge": {tagDelta, 1, 0, 1, 0, 2, 1, 0, 0},
		// self loop 0->0.
		"self loop": {tagDelta, 1, 0, 1, 0, 1, 0, 0},
		// attribute link to a nonexistent attribute.
		"attr out of range": {tagDelta, 1, 0, 0, 1, 0, 1, 2},
		"trailing":          {tagDelta, 0, 0, 0, 0, 9},
	}
	for name, rec := range cases {
		if err := ApplyDelta(base(), rec); err == nil {
			t.Errorf("%s: corrupt delta applied without error", name)
		}
	}
}

// TestReadTimelineCorruptInputs covers the container parser.
func TestReadTimelineCorruptInputs(t *testing.T) {
	b := NewLive()
	if err := b.Append(RandomSAN(rand.New(rand.NewPCG(1, 2)))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.Timeline().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := ReadTimeline(bytes.NewReader(good)); err != nil {
		t.Fatalf("control: valid timeline failed to load: %v", err)
	}

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOTTL\x01"), good[6:]...),
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte{}, good...), 0xaa),
	}
	for name, data := range cases {
		if _, err := ReadTimeline(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt timeline loaded without error", name)
		}
	}
}

// TestTimelineBuilderRejectsNonAppendOnly verifies the in-memory sink
// notices a shrinking network.
func TestTimelineBuilderRejectsNonAppendOnly(t *testing.T) {
	big := san.New(4, 0, 4)
	big.AddSocialNodes(4)
	big.AddSocialEdge(0, 1)
	big.AddSocialEdge(1, 2)
	small := san.New(2, 0, 0)
	small.AddSocialNodes(2)

	b := NewLive()
	if err := b.Append(big); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(small); err == nil {
		t.Error("appending a smaller SAN should fail")
	}

	// Same node count but a shrunken adjacency list must also fail.
	b2 := NewLive()
	if err := b2.Append(big); err != nil {
		t.Fatal(err)
	}
	same := san.New(4, 0, 4)
	same.AddSocialNodes(4)
	same.AddSocialEdge(0, 1) // 1→2 missing
	if err := b2.Append(same); err == nil {
		t.Error("appending a SAN with fewer edges per node should fail")
	}
}

// TestTextAndTimelineFormatsAgree extracts a mid-timeline day and
// checks the binary reconstruction against a text round trip of it.
func TestTextAndTimelineFormatsAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 42))
	b := NewLive()
	g := san.New(0, 0, 0)
	g.AddSocialNodes(10)
	var sans []*san.SAN
	for day := 0; day < 12; day++ {
		// Grow: a couple of nodes, some edges, an attribute.
		g.AddSocialNodes(rng.IntN(3))
		a := g.AddAttrNode(strings.Repeat("a", day+1), san.AttrType(rng.IntN(5)))
		n := g.NumSocial()
		for i := 0; i < 5; i++ {
			g.AddSocialEdge(san.NodeID(rng.IntN(n)), san.NodeID(rng.IntN(n)))
			g.AddAttrEdge(san.NodeID(rng.IntN(n)), a)
		}
		if err := b.Append(g); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		sans = append(sans, g.Clone())
	}
	tl := b.Timeline()
	for day, want := range sans {
		got, err := tl.ReconstructAt(day)
		if err != nil {
			t.Fatalf("reconstruct day %d: %v", day, err)
		}
		if err := SameSAN(want, got); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		var buf bytes.Buffer
		if _, err := got.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		viaText, err := san.Read(&buf)
		if err != nil {
			t.Fatalf("day %d: text decode of reconstruction: %v", day, err)
		}
		if err := SameSAN(want, viaText); err != nil {
			t.Fatalf("day %d via text: %v", day, err)
		}
	}
}
