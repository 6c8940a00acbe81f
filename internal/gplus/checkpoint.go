package gplus

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/san"
)

// Checkpoint codec: WriteState serializes a Simulator mid-run so that
// ReadSimulator can reconstruct it and RunFrom/StreamTimelines can
// continue the simulation bit-identically — same rng stream, same
// event order, byte-identical packed timelines.  That bar is why the
// codec serializes several things that look derivable:
//
//   - the SAN in *insertion order* (san.State), because samplers index
//     adjacency positionally and the snapstore snapshot codec
//     canonicalizes to sorted order;
//   - the attacher's running float sums and ballot verbatim
//     (core.AttacherState), because incremental float accumulation is
//     order-dependent and the ballot's cross-node interleaving is not
//     recoverable from per-node adjacency;
//   - the event heap as its raw backing slice (the heap invariant is a
//     property of element order, so it round-trips);
//   - the rng source's marshaled state.
//
// The catalog's popularity ballots travel the same way; its boost table
// is the one piece rebuilt from code (seedValues is a compile-time
// constant keyed by attribute name).  Config and trace.Record contents
// are NOT part of the state: callers persist the config alongside the
// checkpoint (cmd/sangen stores it in the checkpoint's JSON header) and
// must pass the identical one to ReadSimulator; resumed runs do not
// replay trace events from before the checkpoint.
//
// Version 2 carries an rng-mode byte and a substream salt right after
// the version byte.  The simulator has one (sequential) rng discipline,
// so WriteState always writes mode 0 and salt 0 — keeping state bytes
// and existing checkpoints valid — and ReadSimulator rejects any other
// mode: those states came from the removed split-rng mode and cannot
// be continued.  Version 1 checkpoints (no mode byte) still load.
const (
	stateMagic   = "GPCK"
	stateVersion = 2
)

// WriteState serializes the simulator's complete resumable state.  It
// must be called between days (from a perDay/StreamTimelines hook, or
// after Run returns) — never while a day is being simulated.
func (s *Simulator) WriteState(w io.Writer) error {
	sw := &stateWriter{w: w}
	sw.bytes([]byte(stateMagic))
	sw.u8(stateVersion)
	sw.u8(0) // rng mode: sequential
	sw.uvarint(0)

	rng, err := s.rngSrc.MarshalBinary()
	if err != nil {
		return fmt.Errorf("gplus: marshaling rng state: %w", err)
	}
	sw.uvarint(uint64(len(rng)))
	sw.bytes(rng)

	sw.uvarint(uint64(s.day))
	sw.f64(s.now)

	nu := len(s.kinds)
	sw.uvarint(uint64(nu))
	for _, k := range s.kinds {
		sw.u8(byte(k))
	}
	for _, d := range s.deaths {
		sw.f64(d)
	}
	for _, b := range s.lifeBoost {
		sw.f64(b)
	}
	for _, d := range s.baseOut {
		sw.uvarint(uint64(d))
	}
	for _, d := range s.declared {
		if d {
			sw.u8(1)
		} else {
			sw.u8(0)
		}
	}

	sw.uvarint(uint64(len(s.events)))
	for _, e := range s.events {
		sw.f64(e.t)
		sw.u8(byte(e.kind))
		sw.varint(int64(e.u))
		sw.varint(int64(e.v))
	}

	ast := s.attacher.State()
	sw.f64(ast.SumPow)
	sw.uvarint(uint64(ast.N))
	sw.uvarint(uint64(len(ast.Ballot)))
	for _, v := range ast.Ballot {
		sw.uvarint(uint64(v))
	}
	if ast.Tree != nil {
		sw.u8(1)
		sw.uvarint(uint64(ast.TreeN))
		for _, t := range ast.Tree {
			sw.f64(t)
		}
	} else {
		sw.u8(0)
	}

	sw.uvarint(uint64(s.catalog.serial))
	for t := range s.catalog.ballot {
		b := s.catalog.ballot[t]
		sw.uvarint(uint64(len(b)))
		for _, a := range b {
			sw.uvarint(uint64(a))
		}
	}

	st := s.G.ExportState()
	n, na := len(st.Out), len(st.Members)
	socialEdges, attrEdges := 0, 0
	for u := 0; u < n; u++ {
		socialEdges += len(st.Out[u])
		attrEdges += len(st.Attr[u])
	}
	sw.uvarint(uint64(n))
	sw.uvarint(uint64(na))
	// Edge totals up front let the decoder back all adjacency lists
	// with four flat arrays instead of millions of small allocations.
	sw.uvarint(uint64(socialEdges))
	sw.uvarint(uint64(attrEdges))
	writeNodeLists(sw, st.Out)
	writeNodeLists(sw, st.In)
	for u := 0; u < n; u++ {
		sw.uvarint(uint64(len(st.Attr[u])))
		for _, a := range st.Attr[u] {
			sw.uvarint(uint64(a))
		}
	}
	writeNodeLists(sw, st.Members)
	for a := 0; a < na; a++ {
		sw.str(st.AttrNames[a])
		sw.u8(byte(st.AttrTypes[a]))
	}
	return sw.err
}

func writeNodeLists(sw *stateWriter, lists [][]san.NodeID) {
	for _, l := range lists {
		sw.uvarint(uint64(len(l)))
		for _, v := range l {
			sw.uvarint(uint64(v))
		}
	}
}

// Day reports the last fully simulated day (0 before Run).  A resumed
// run continues from Day()+1.
func (s *Simulator) Day() int { return s.day }

// ReadSimulator reconstructs a simulator from state written by
// WriteState.  cfg must be the exact configuration of the simulator
// that wrote the state — the codec does not embed it — and sc is the
// caller-owned scratch arena (reset here, exactly as NewWithScratch
// does).  The bootstrap clique is NOT replayed: the checkpointed state
// already contains its effects, including the rng draws it consumed.
func ReadSimulator(cfg Config, r io.Reader, sc *Scratch) (*Simulator, error) {
	sr := &stateReader{r: bufio.NewReaderSize(r, 1<<20)}
	var magic [4]byte
	sr.bytes(magic[:])
	if sr.err == nil && string(magic[:]) != stateMagic {
		return nil, fmt.Errorf("gplus: not a checkpoint state (magic %q)", magic[:])
	}
	v := sr.u8()
	if sr.err == nil && (v < 1 || v > stateVersion) {
		return nil, fmt.Errorf("gplus: unsupported checkpoint state version %d", v)
	}
	if v >= 2 {
		mode := sr.u8()
		sr.uvarint() // substream salt, unused by the sequential mode
		if sr.err == nil && mode != 0 {
			return nil, fmt.Errorf("gplus: checkpoint was written in the removed split rng mode (mode byte %d); only sequential checkpoints can be resumed", mode)
		}
	}

	src := rand.NewPCG(0, 0)
	rngLen := sr.length("rng state")
	rngBytes := make([]byte, rngLen)
	sr.bytes(rngBytes)
	if sr.err == nil {
		if err := src.UnmarshalBinary(rngBytes); err != nil {
			return nil, fmt.Errorf("gplus: restoring rng state: %w", err)
		}
	}

	s := &Simulator{
		Cfg:      cfg,
		Rng:      rand.New(src),
		rngSrc:   src,
		attacher: core.NewAttacher(cfg.Attachment, cfg.Alpha, cfg.Beta),
		scr:      sc,
	}
	s.attacher.UseScratch(sc.core)
	sc.nbrs.Reset()
	for t, w := range cfg.FocalTypeWeight {
		if san.ValidAttrType(t) {
			s.ftw[t] = w
		}
	}

	s.day = sr.length("day")
	s.now = sr.f64()

	nu := sr.length("user count")
	if sr.err != nil {
		return nil, sr.err
	}
	s.kinds = make([]UserKind, nu)
	for i := range s.kinds {
		s.kinds[i] = UserKind(sr.u8())
	}
	s.deaths = make([]float64, nu)
	for i := range s.deaths {
		s.deaths[i] = sr.f64()
	}
	s.lifeBoost = make([]float64, nu)
	for i := range s.lifeBoost {
		s.lifeBoost[i] = sr.f64()
	}
	s.baseOut = make([]int, nu)
	for i := range s.baseOut {
		s.baseOut[i] = sr.length("base outdegree")
	}
	s.declared = make([]bool, nu)
	for i := range s.declared {
		s.declared[i] = sr.u8() != 0
	}

	ne := sr.length("event count")
	if sr.err != nil {
		return nil, sr.err
	}
	s.events = make(eventHeap, ne)
	for i := range s.events {
		s.events[i] = event{
			t:    sr.f64(),
			kind: eventKind(sr.u8()),
			u:    san.NodeID(sr.varint()),
			v:    san.NodeID(sr.varint()),
		}
	}

	ast := core.AttacherState{SumPow: sr.f64(), N: sr.length("attacher node count")}
	nb := sr.length("attacher ballot length")
	if sr.err != nil {
		return nil, sr.err
	}
	ast.Ballot = make([]san.NodeID, nb)
	for i := range ast.Ballot {
		ast.Ballot[i] = san.NodeID(sr.length("ballot entry"))
	}
	if sr.u8() != 0 {
		ast.TreeN = sr.length("fenwick size")
		if sr.err != nil {
			return nil, sr.err
		}
		ast.Tree = make([]float64, ast.TreeN+1)
		for i := range ast.Tree {
			ast.Tree[i] = sr.f64()
		}
	}
	if sr.err != nil {
		return nil, sr.err
	}
	if err := s.attacher.Restore(ast); err != nil {
		return nil, err
	}

	cat := &catalog{sim: s, boost: make(map[san.AttrID]float64, len(seedValues))}
	cat.serial = sr.length("catalog serial")
	for t := range cat.ballot {
		bl := sr.length("catalog ballot length")
		if sr.err != nil {
			return nil, sr.err
		}
		cat.ballot[t] = make([]san.AttrID, bl)
		for i := range cat.ballot[t] {
			cat.ballot[t][i] = san.AttrID(sr.length("catalog ballot entry"))
		}
	}
	s.catalog = cat

	n := sr.length("social node count")
	na := sr.length("attribute node count")
	socialEdges := sr.length("social edge count")
	attrEdges := sr.length("attribute edge count")
	if sr.err != nil {
		return nil, sr.err
	}
	st := san.State{
		Out:       make([][]san.NodeID, n),
		In:        make([][]san.NodeID, n),
		Attr:      make([][]san.AttrID, n),
		Members:   make([][]san.NodeID, na),
		AttrNames: make([]string, na),
		AttrTypes: make([]san.AttrType, na),
	}
	outFlat := make([]san.NodeID, socialEdges)
	inFlat := make([]san.NodeID, socialEdges)
	attrFlat := make([]san.AttrID, attrEdges)
	memberFlat := make([]san.NodeID, attrEdges)
	if !sr.readNodeLists(st.Out, outFlat, "out-adjacency") ||
		!sr.readNodeLists(st.In, inFlat, "in-adjacency") {
		return nil, sr.err
	}
	off := 0
	for u := 0; u < n; u++ {
		l := sr.length("attribute list")
		if sr.err != nil || off+l > len(attrFlat) {
			return nil, sr.overrun("attribute list")
		}
		dst := attrFlat[off : off+l : off+l]
		off += l
		for i := range dst {
			dst[i] = san.AttrID(sr.length("attribute id"))
		}
		st.Attr[u] = dst
	}
	if !sr.readNodeLists(st.Members, memberFlat, "membership list") {
		return nil, sr.err
	}
	for a := 0; a < na; a++ {
		st.AttrNames[a] = sr.str()
		st.AttrTypes[a] = san.AttrType(sr.u8())
	}
	if sr.err != nil {
		return nil, sr.err
	}
	g, err := san.FromState(st)
	if err != nil {
		return nil, err
	}
	s.G = g
	if len(s.kinds) != g.NumSocial() {
		return nil, fmt.Errorf("gplus: checkpoint has %d users but %d social nodes", len(s.kinds), g.NumSocial())
	}

	// seedValues is compile-time data keyed by attribute name, so the
	// boost table is the one catalog piece rebuilt instead of stored.
	for _, sv := range seedValues {
		if id, ok := g.AttrByName(sv.name); ok {
			cat.boost[id] = sv.boost
		}
	}
	return s, nil
}

// readNodeLists fills lists from the stream, carving each list out of
// flat (full-capacity sub-slices, so a later append cannot clobber a
// neighbor).  Returns false on error with sr.err set.
func (sr *stateReader) readNodeLists(lists [][]san.NodeID, flat []san.NodeID, what string) bool {
	off := 0
	for u := range lists {
		l := sr.length(what)
		if sr.err != nil || off+l > len(flat) {
			sr.overrun(what)
			return false
		}
		dst := flat[off : off+l : off+l]
		off += l
		for i := range dst {
			dst[i] = san.NodeID(sr.length(what + " id"))
		}
		lists[u] = dst
	}
	return sr.err == nil
}

// stateWriter is a sticky-error little-endian primitive writer.
type stateWriter struct {
	w   io.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (sw *stateWriter) bytes(p []byte) {
	if sw.err == nil {
		_, sw.err = sw.w.Write(p)
	}
}

func (sw *stateWriter) u8(b byte) {
	sw.buf[0] = b
	sw.bytes(sw.buf[:1])
}

func (sw *stateWriter) uvarint(x uint64) {
	n := binary.PutUvarint(sw.buf[:], x)
	sw.bytes(sw.buf[:n])
}

func (sw *stateWriter) varint(x int64) {
	n := binary.PutVarint(sw.buf[:], x)
	sw.bytes(sw.buf[:n])
}

func (sw *stateWriter) f64(v float64) {
	binary.LittleEndian.PutUint64(sw.buf[:8], math.Float64bits(v))
	sw.bytes(sw.buf[:8])
}

func (sw *stateWriter) str(s string) {
	sw.uvarint(uint64(len(s)))
	sw.bytes([]byte(s))
}

// stateReader is the sticky-error counterpart of stateWriter.
type stateReader struct {
	r   *bufio.Reader
	err error
}

func (sr *stateReader) bytes(p []byte) {
	if sr.err == nil {
		_, sr.err = io.ReadFull(sr.r, p)
	}
}

func (sr *stateReader) u8() byte {
	if sr.err != nil {
		return 0
	}
	b, err := sr.r.ReadByte()
	if err != nil {
		sr.err = err
		return 0
	}
	return b
}

func (sr *stateReader) uvarint() uint64 {
	if sr.err != nil {
		return 0
	}
	x, err := binary.ReadUvarint(sr.r)
	if err != nil {
		sr.err = err
		return 0
	}
	return x
}

func (sr *stateReader) varint() int64 {
	if sr.err != nil {
		return 0
	}
	x, err := binary.ReadVarint(sr.r)
	if err != nil {
		sr.err = err
		return 0
	}
	return x
}

func (sr *stateReader) f64() float64 {
	var b [8]byte
	sr.bytes(b[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

func (sr *stateReader) str() string {
	l := sr.length("string")
	if sr.err != nil {
		return ""
	}
	b := make([]byte, l)
	sr.bytes(b)
	return string(b)
}

// length reads a uvarint that must fit a non-negative int.
func (sr *stateReader) length(what string) int {
	x := sr.uvarint()
	if sr.err == nil && x > math.MaxInt/2 {
		sr.err = fmt.Errorf("gplus: corrupt checkpoint: implausible %s (%d)", what, x)
	}
	return int(x)
}

// overrun records (and returns) a flat-buffer overrun error, keeping
// any earlier stream error if one is already set.
func (sr *stateReader) overrun(what string) error {
	if sr.err == nil {
		sr.err = fmt.Errorf("gplus: corrupt checkpoint: %s overruns its declared total", what)
	}
	return sr.err
}
