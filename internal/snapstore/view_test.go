package snapstore_test

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"repro/internal/gplus"
	"repro/internal/san"
	"repro/internal/snapstore"
)

// viewSinks is one of each DaySink packing a crawl view with
// AppendView, beside a Live packing the materialized view with Append:
// the reference every AppendView sink must match byte for byte.
type viewSinks struct {
	t                   *testing.T
	ref                 *snapstore.Live
	live, teeLive       *snapstore.Live
	stream, teeStream   *snapstore.StreamWriter
	tee                 snapstore.DaySink
	streamPath, teePath string
}

func newViewSinks(t *testing.T) *viewSinks {
	dir := t.TempDir()
	s := &viewSinks{
		t:          t,
		ref:        snapstore.NewLive(),
		live:       snapstore.NewLive(),
		teeLive:    snapstore.NewLive(),
		streamPath: filepath.Join(dir, "stream.tl"),
		teePath:    filepath.Join(dir, "tee.tl"),
	}
	var err error
	if s.stream, err = snapstore.NewStreamWriter(s.streamPath); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.stream.Abort)
	if s.teeStream, err = snapstore.NewStreamWriter(s.teePath); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.teeStream.Abort)
	s.tee = snapstore.Tee(s.teeLive, s.teeStream)
	return s
}

// appendDay packs g under declared into every sink; want is what the
// reference packs for the same day.
func (s *viewSinks) appendDay(day int, g *san.SAN, declared []bool, want *san.SAN) {
	s.t.Helper()
	if err := s.ref.Append(want); err != nil {
		s.t.Fatalf("day %d: reference append: %v", day, err)
	}
	for name, sink := range map[string]snapstore.DaySink{"Live": s.live, "StreamWriter": s.stream, "Tee": s.tee} {
		if err := sink.AppendView(g, declared); err != nil {
			s.t.Fatalf("day %d: %s.AppendView: %v", day, name, err)
		}
		if got, want := sink.PackedBytes(), s.ref.PackedBytes(); got != want {
			s.t.Fatalf("day %d: %s packed %d bytes, reference %d", day, name, got, want)
		}
	}
}

// check finalizes the streams and compares every sink's serialized
// timeline with the reference's.  The serialization lists each day's
// record length, so equal bytes mean every day's record is equal.
func (s *viewSinks) check() {
	s.t.Helper()
	want := timelineBytes(s.t, s.ref.Timeline())
	for name, tl := range map[string]*snapstore.Timeline{"Live": s.live.Timeline(), "Tee's Live": s.teeLive.Timeline()} {
		if got := timelineBytes(s.t, tl); !bytes.Equal(got, want) {
			s.t.Errorf("%s timeline differs from the packed CloneView (%d vs %d bytes)", name, len(got), len(want))
		}
	}
	for name, w := range map[string]*snapstore.StreamWriter{s.streamPath: s.stream, s.teePath: s.teeStream} {
		if err := w.Finalize(); err != nil {
			s.t.Fatal(err)
		}
		got, err := os.ReadFile(name)
		if err != nil {
			s.t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			s.t.Errorf("%s differs from the packed CloneView (%d vs %d bytes)", filepath.Base(name), len(got), len(want))
		}
	}
}

func timelineBytes(t *testing.T, tl *snapstore.Timeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendViewMatchesCloneView is the byte-identity oracle of the
// filtered encode: on every day of a quick-scale gplus run,
// AppendView(g, declared) packs exactly the record Append packs for
// g.CloneView(declared), through Live, StreamWriter and Tee.
func TestAppendViewMatchesCloneView(t *testing.T) {
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = 100
	sim := gplus.New(cfg)
	sinks := newViewSinks(t)
	var declared []bool
	err := sim.StreamTimelines(1, 0, nil, nil, func(day int, g, _ *san.SAN) error {
		for u := len(declared); u < g.NumSocial(); u++ {
			declared = append(declared, sim.Declared(san.NodeID(u)))
		}
		sinks.appendDay(day, g, declared, g.CloneView(declared))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if undeclared := len(declared) - count(declared); undeclared == 0 || undeclared == len(declared) {
		t.Fatalf("%d of %d users undeclared: the run does not exercise the filter", undeclared, len(declared))
	}
	sinks.check()
}

// TestAppendViewDeclaredEdgeCases runs the oracle over a hand-built
// evolving SAN with fixed declared slices: nil packs all of g (plain
// Append), all-false drops every attribute link, all-true keeps every
// one, and a slice shorter than NumSocial drops the links of every
// user past its end.
func TestAppendViewDeclaredEdgeCases(t *testing.T) {
	days := attrGrowingDays(3, 12)
	n := days[len(days)-1].NumSocial()
	short := make([]bool, n/3)
	for u := range short {
		short[u] = u%2 == 0
	}
	for _, c := range []struct {
		name     string
		declared []bool
	}{
		{"nil", nil},
		{"all false", make([]bool, n)},
		{"all true", slices.Repeat([]bool{true}, n)},
		{"shorter than NumSocial", short},
	} {
		t.Run(c.name, func(t *testing.T) {
			sinks := newViewSinks(t)
			for day, g := range days {
				want := g
				if c.declared != nil {
					want = g.CloneView(c.declared)
				}
				sinks.appendDay(day, g, c.declared, want)
			}
			sinks.check()
		})
	}
}

// attrGrowingDays returns numDays successive clones of an append-only
// SAN in which existing users keep gaining attribute links, so later
// days' deltas carry attribute groups for old and new users alike.
func attrGrowingDays(seed uint64, numDays int) []*san.SAN {
	rng := rand.New(rand.NewPCG(seed, seed^0x5851f42d4c957f2d))
	g := san.New(0, 0, 0)
	g.AddSocialNodes(6)
	days := make([]*san.SAN, 0, numDays)
	for day := 0; day < numDays; day++ {
		g.AddSocialNodes(1 + rng.IntN(4))
		g.AddAttrNode("v#"+strconv.Itoa(day), san.AttrType(rng.IntN(5)))
		n, na := g.NumSocial(), g.NumAttrs()
		for i := 0; i < 10; i++ {
			g.AddSocialEdge(san.NodeID(rng.IntN(n)), san.NodeID(rng.IntN(n)))
			g.AddAttrEdge(san.NodeID(rng.IntN(n)), san.AttrID(rng.IntN(na)))
		}
		days = append(days, g.Clone())
	}
	return days
}

func count(s []bool) int {
	n := 0
	for _, v := range s {
		if v {
			n++
		}
	}
	return n
}
