package snapstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/atomicio"
	"repro/internal/san"
)

// DaySink consumes an evolving SAN one day at a time, packing each day
// into the timeline encoding.  Live (all days in memory) and
// StreamWriter (days spilled to disk as encoded) both implement it;
// gplus.StreamTimelines emits through the interface so simulations
// choose their memory/durability trade-off per sink.
type DaySink interface {
	// Append packs g as the next day.  The SAN sequence must be
	// append-only day over day.  It is AppendView(g, nil).
	Append(g *san.SAN) error
	// AppendView packs the crawl view of g as the next day: the record
	// g.CloneView(declared) would pack, built from g itself, so the
	// view is never materialized.  A nil declared packs all of g.
	// declared must not be unset for a user once set, so the packed
	// views stay append-only.
	AppendView(g *san.SAN, declared []bool) error
	// PackedBytes reports the total encoded size of the days appended
	// so far (a running total, O(1) per call).
	PackedBytes() int
}

// Tee returns a DaySink that forwards every Append and AppendView to
// each of the given sinks in order, stopping at the first error.
// PackedBytes reports the first sink's running total (each sink
// encodes the same days, so the totals agree; counting one avoids
// double-billing progress bytes).  A sangen -stream-out run tees its
// disk sink into a Live so a mounted server can tail the evolution as
// it is produced.
func Tee(sinks ...DaySink) DaySink { return teeSink(sinks) }

type teeSink []DaySink

func (t teeSink) Append(g *san.SAN) error { return t.AppendView(g, nil) }

func (t teeSink) AppendView(g *san.SAN, declared []bool) error {
	for _, s := range t {
		if err := s.AppendView(g, declared); err != nil {
			return err
		}
	}
	return nil
}

func (t teeSink) PackedBytes() int {
	if len(t) == 0 {
		return 0
	}
	return t[0].PackedBytes()
}

// dayEncoder turns a sequence of append-only SAN states into timeline
// day records: the first Append encodes a full snapshot, every later
// one a forward delta against the per-node link counts retained from
// the previous day.  Live and StreamWriter share it.
type dayEncoder struct {
	numDays   int
	numSocial int
	numAttrs  int
	outDeg    []int32
	attrDeg   []int32
}

// encode packs g (its crawl view, with a non-nil declared) as the next
// day record and advances the retained counts.
func (e *dayEncoder) encode(g *san.SAN, declared []bool) ([]byte, error) {
	var rec []byte
	if e.numDays == 0 {
		rec = EncodeSnapshot(g, declared)
	} else {
		var err error
		rec, err = encodeDelta(g, declared, e.numSocial, e.numAttrs, e.outDeg, e.attrDeg)
		if err != nil {
			return nil, fmt.Errorf("snapstore: day %d: %w", e.numDays, err)
		}
	}
	e.observe(g, declared, e.numDays+1)
	return rec, nil
}

// observe points the encoder's retained state at g (its crawl view,
// with a non-nil declared) as of day numDays (the day count *including*
// g's day).  Resume paths use it directly to seed a fresh encoder from
// a restored SAN without encoding anything.
func (e *dayEncoder) observe(g *san.SAN, declared []bool, numDays int) {
	e.numDays = numDays
	e.numSocial, e.numAttrs = g.NumSocial(), g.NumAttrs()
	e.outDeg = resizeTo(e.outDeg, e.numSocial)
	e.attrDeg = resizeTo(e.attrDeg, e.numSocial)
	for u := 0; u < e.numSocial; u++ {
		e.outDeg[u] = int32(g.OutDegree(san.NodeID(u)))
		e.attrDeg[u] = 0
		if visible(declared, u) {
			e.attrDeg[u] = int32(g.AttrDegree(san.NodeID(u)))
		}
	}
}

// StreamWriter packs a timeline straight to disk: each appended day's
// record is encoded and flushed to a spill file (path + ".spill"), so
// resident memory stays bounded by the live SAN plus one day's record —
// never the whole timeline.  Finalize assembles the final file (the
// exact bytes Timeline.WriteTo produces: magic, day-count header, then
// the spilled records) in a temp file and atomically renames it over
// path, then removes the spill.
//
// An interrupted run leaves the spill file behind; ResumeStreamWriter
// picks it up at a recorded day boundary and continues appending.
type StreamWriter struct {
	path      string
	spillPath string
	f         *os.File
	bw        *bufio.Writer
	enc       dayEncoder
	lens      []int
	packed    int
	closed    bool
}

// spillSuffix names the work file a StreamWriter appends day records
// to before Finalize assembles the final timeline.
const spillSuffix = ".spill"

// NewStreamWriter starts streaming a packed timeline toward path,
// truncating any stale spill file from an abandoned earlier run.
func NewStreamWriter(path string) (*StreamWriter, error) {
	spill := path + spillSuffix
	f, err := os.Create(spill)
	if err != nil {
		return nil, fmt.Errorf("snapstore: creating spill: %w", err)
	}
	return &StreamWriter{path: path, spillPath: spill, f: f, bw: bufio.NewWriterSize(f, 1<<20)}, nil
}

// ResumeStreamWriter reopens an interrupted stream at a checkpointed
// day boundary: lens are the recorded per-day record sizes (the spill
// is truncated to their sum, discarding any days written after the
// checkpoint was taken), and last is the SAN the stream packed for the
// last recorded day (for a crawl-view stream, that view), which
// re-seeds the delta encoder.  The next Append continues with day
// len(lens).
func ResumeStreamWriter(path string, lens []int, last *san.SAN) (*StreamWriter, error) {
	if len(lens) == 0 {
		return nil, fmt.Errorf("snapstore: resume needs at least the day-0 record")
	}
	spill := path + spillSuffix
	f, err := os.OpenFile(spill, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("snapstore: reopening spill: %w", err)
	}
	total := int64(0)
	for _, l := range lens {
		total += int64(l)
	}
	st, err := f.Stat()
	if err == nil && st.Size() < total {
		err = fmt.Errorf("snapstore: spill %s holds %d bytes, checkpoint recorded %d", spill, st.Size(), total)
	}
	if err == nil {
		err = f.Truncate(total)
	}
	if err == nil {
		_, err = f.Seek(total, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &StreamWriter{
		path:      path,
		spillPath: spill,
		f:         f,
		bw:        bufio.NewWriterSize(f, 1<<20),
		lens:      append([]int(nil), lens...),
		packed:    int(total),
	}
	w.enc.observe(last, nil, len(lens))
	return w, nil
}

// Append encodes g as the next day and writes the record to the spill
// file.
func (w *StreamWriter) Append(g *san.SAN) error { return w.AppendView(g, nil) }

// AppendView encodes the crawl view of g under declared (all of g when
// declared is nil) as the next day and writes the record to the spill
// file.
func (w *StreamWriter) AppendView(g *san.SAN, declared []bool) error {
	if w.closed {
		return fmt.Errorf("snapstore: appending to a finalized stream")
	}
	rec, err := w.enc.encode(g, declared)
	if err != nil {
		return err
	}
	if _, err := w.bw.Write(rec); err != nil {
		return fmt.Errorf("snapstore: spill write: %w", err)
	}
	w.lens = append(w.lens, len(rec))
	w.packed += len(rec)
	return nil
}

// NumDays returns the number of days appended so far.
func (w *StreamWriter) NumDays() int { return len(w.lens) }

// DayLen returns the encoded size of day i's record.
func (w *StreamWriter) DayLen(i int) int { return w.lens[i] }

// DayLens returns a copy of the per-day record sizes; checkpoints
// persist it so ResumeStreamWriter can truncate the spill back to the
// checkpointed day boundary.
func (w *StreamWriter) DayLens() []int { return append([]int(nil), w.lens...) }

// PackedBytes reports the total encoded payload size so far.
func (w *StreamWriter) PackedBytes() int { return w.packed }

// Flush forces every appended record through to the spill file and
// syncs it — the durability barrier checkpoints take before persisting
// simulator state, so a resumed run never finds the spill shorter than
// the checkpoint claims.
func (w *StreamWriter) Flush() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Finalize assembles the final timeline file and removes the spill.
// The output is byte-identical to Timeline.WriteTo over the same days:
// magic, uvarint day count, uvarint per-day lengths, then the records.
// The file appears atomically (temp + rename), so a concurrent reader
// never sees a header without its payload.
func (w *StreamWriter) Finalize() error {
	if w.closed {
		return fmt.Errorf("snapstore: stream already finalized")
	}
	if len(w.lens) == 0 {
		return fmt.Errorf("snapstore: finalizing an empty stream")
	}
	if err := w.Flush(); err != nil {
		return err
	}
	err := atomicio.WriteFile(w.path, func(out io.Writer) error {
		var hdr []byte
		hdr = append(hdr, fileMagic...)
		hdr = binary.AppendUvarint(hdr, uint64(len(w.lens)))
		for _, l := range w.lens {
			hdr = binary.AppendUvarint(hdr, uint64(l))
		}
		if _, err := out.Write(hdr); err != nil {
			return err
		}
		if _, err := w.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		_, err := io.CopyN(out, w.f, int64(w.packed))
		return err
	})
	if err != nil {
		return err
	}
	w.closed = true
	w.f.Close()
	return os.Remove(w.spillPath)
}

// Abort discards the stream: the spill file is closed and removed, and
// the destination (if any earlier version exists) is left untouched.
// Safe to call after Finalize, where it is a no-op.
func (w *StreamWriter) Abort() {
	if w.closed {
		return
	}
	w.closed = true
	w.f.Close()
	os.Remove(w.spillPath)
}

// Close releases the spill file handle but leaves the spill on disk, so
// a later ResumeStreamWriter can pick the stream back up — the
// deliberate-interruption counterpart of Abort.  Unflushed appends are
// lost (resume re-simulates them); call Flush first to keep them.
// No-op after Finalize or Abort.
func (w *StreamWriter) Close() {
	if w.closed {
		return
	}
	w.closed = true
	w.f.Close()
}
