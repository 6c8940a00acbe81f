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
// ReadSimulator can reconstruct it and StreamTimelines can
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

// stateChunk is the size at which WriteState hands its encoded bytes
// to w: one Write per chunk, and never more than about one chunk of
// the state held in memory.
const stateChunk = 64 << 10

// WriteState serializes the simulator's complete resumable state.  It
// must be called between days (from a perDay/StreamTimelines hook, or
// after Run returns) — never while a day is being simulated.
func (s *Simulator) WriteState(w io.Writer) error {
	rng, err := s.rngSrc.MarshalBinary()
	if err != nil {
		return fmt.Errorf("gplus: marshaling rng state: %w", err)
	}
	c := &chunker{w: w}
	b := make([]byte, 0, 2*stateChunk)
	b = append(b, stateMagic...)
	b = append(b, stateVersion, 0) // rng mode: sequential
	b = binary.AppendUvarint(b, 0) // substream salt
	b = binary.AppendUvarint(b, uint64(len(rng)))
	b = append(b, rng...)

	b = binary.AppendUvarint(b, uint64(s.day))
	b = appendF64(b, s.now)

	nu := len(s.kinds)
	b = binary.AppendUvarint(b, uint64(nu))
	for _, k := range s.kinds {
		b = c.spill(append(b, byte(k)))
	}
	for _, d := range s.deaths {
		b = c.spill(appendF64(b, d))
	}
	for _, lb := range s.lifeBoost {
		b = c.spill(appendF64(b, lb))
	}
	for _, d := range s.baseOut {
		b = c.spill(binary.AppendUvarint(b, uint64(d)))
	}
	for _, d := range s.declared {
		var v byte
		if d {
			v = 1
		}
		b = c.spill(append(b, v))
	}

	b = binary.AppendUvarint(b, uint64(len(s.events)))
	for _, e := range s.events {
		b = appendF64(b, e.t)
		b = append(b, byte(e.kind))
		b = binary.AppendVarint(b, int64(e.u))
		b = c.spill(binary.AppendVarint(b, int64(e.v)))
	}

	ast := s.attacher.State()
	b = appendF64(b, ast.SumPow)
	b = binary.AppendUvarint(b, uint64(ast.N))
	b = binary.AppendUvarint(b, uint64(len(ast.Ballot)))
	for _, v := range ast.Ballot {
		b = c.spill(binary.AppendUvarint(b, uint64(v)))
	}
	if ast.Tree != nil {
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(ast.TreeN))
		for _, t := range ast.Tree {
			b = c.spill(appendF64(b, t))
		}
	} else {
		b = append(b, 0)
	}

	b = binary.AppendUvarint(b, uint64(s.catalog.serial))
	for t := range s.catalog.ballot {
		ballot := s.catalog.ballot[t]
		b = binary.AppendUvarint(b, uint64(len(ballot)))
		for _, a := range ballot {
			b = c.spill(binary.AppendUvarint(b, uint64(a)))
		}
	}

	st := s.G.ExportState()
	n, na := len(st.Out), len(st.Members)
	socialEdges, attrEdges := 0, 0
	for u := 0; u < n; u++ {
		socialEdges += len(st.Out[u])
		attrEdges += len(st.Attr[u])
	}
	b = binary.AppendUvarint(b, uint64(n))
	b = binary.AppendUvarint(b, uint64(na))
	// Edge totals up front let the decoder back all adjacency lists
	// with four flat arrays instead of millions of small allocations.
	b = binary.AppendUvarint(b, uint64(socialEdges))
	b = binary.AppendUvarint(b, uint64(attrEdges))
	b = c.appendNodeLists(b, st.Out)
	b = c.appendNodeLists(b, st.In)
	for u := 0; u < n; u++ {
		b = binary.AppendUvarint(b, uint64(len(st.Attr[u])))
		for _, a := range st.Attr[u] {
			b = binary.AppendUvarint(b, uint64(a))
		}
		b = c.spill(b)
	}
	b = c.appendNodeLists(b, st.Members)
	for a := 0; a < na; a++ {
		b = binary.AppendUvarint(b, uint64(len(st.AttrNames[a])))
		b = append(b, st.AttrNames[a]...)
		b = c.spill(append(b, byte(st.AttrTypes[a])))
	}
	c.flush(b)
	return c.err
}

// chunker hands WriteState's encoded bytes to w a chunk at a time,
// keeping the first write error.
type chunker struct {
	w   io.Writer
	err error
}

// flush writes b and returns it emptied for reuse.
func (c *chunker) flush(b []byte) []byte {
	if c.err == nil {
		_, c.err = c.w.Write(b)
	}
	return b[:0]
}

// spill flushes b once it holds stateChunk bytes.
func (c *chunker) spill(b []byte) []byte {
	if len(b) >= stateChunk {
		return c.flush(b)
	}
	return b
}

func (c *chunker) appendNodeLists(b []byte, lists [][]san.NodeID) []byte {
	for _, l := range lists {
		b = binary.AppendUvarint(b, uint64(len(l)))
		for _, v := range l {
			b = binary.AppendUvarint(b, uint64(v))
		}
		b = c.spill(b)
	}
	return b
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
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

// stateReader is a sticky-error little-endian primitive reader, the
// decoding counterpart of WriteState.
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
