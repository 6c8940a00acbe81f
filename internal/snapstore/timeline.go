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

// fileMagic identifies a packed timeline file; the trailing byte is
// the format version.
var fileMagic = []byte{'S', 'A', 'N', 'T', 'L', 1}

// Timeline is a packed snapshot sequence: day 0 as a full binary
// snapshot, every later day as a forward delta.  Days are indexed from
// 0; callers that think in calendar days (gplus days start at 1) map
// day d to index d-1.  A Timeline is immutable once built and safe for
// concurrent readers.
type Timeline struct {
	days [][]byte
}

// NumDays returns the number of stored days.
func (t *Timeline) NumDays() int { return len(t.days) }

// DaySize returns the encoded size in bytes of day i's record.
func (t *Timeline) DaySize(i int) int { return len(t.days[i]) }

// Size returns the total encoded payload size in bytes.
func (t *Timeline) Size() int {
	n := 0
	for _, d := range t.days {
		n += len(d)
	}
	return n
}

// ReconstructAt decodes the SAN as of day i (0-based): the base
// snapshot plus deltas 1..i.  The returned SAN is freshly built and
// owned by the caller.
func (t *Timeline) ReconstructAt(i int) (*san.SAN, error) {
	if i < 0 || i >= len(t.days) {
		return nil, fmt.Errorf("snapstore: day %d out of range [0,%d)", i, len(t.days))
	}
	g, err := DecodeSnapshot(t.days[0])
	if err != nil {
		return nil, fmt.Errorf("snapstore: day 0: %w", err)
	}
	for d := 1; d <= i; d++ {
		if err := t.ApplyDay(g, d); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// ApplyDay advances g in place from day i-1 to day i.  Callers walking
// a range apply days incrementally instead of calling ReconstructAt
// per day.
func (t *Timeline) ApplyDay(g *san.SAN, i int) error {
	if i < 1 || i >= len(t.days) {
		return fmt.Errorf("snapstore: delta day %d out of range [1,%d)", i, len(t.days))
	}
	if err := ApplyDelta(g, t.days[i]); err != nil {
		return fmt.Errorf("snapstore: day %d: %w", i, err)
	}
	return nil
}

// WriteTo serializes the timeline:
//
//	magic "SANTL" + version byte
//	uvarint numDays, then uvarint length of each day record
//	day records, concatenated
func (t *Timeline) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(p []byte) error {
		c, err := bw.Write(p)
		n += int64(c)
		return err
	}
	if err := write(fileMagic); err != nil {
		return n, err
	}
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, uint64(len(t.days)))
	for _, d := range t.days {
		hdr = binary.AppendUvarint(hdr, uint64(len(d)))
	}
	if err := write(hdr); err != nil {
		return n, err
	}
	for _, d := range t.days {
		if err := write(d); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadTimeline parses a packed timeline.  Day records are retained in
// memory (packed timelines are small — structure sharing keeps each
// delta proportional to one day's growth); decoding stays lazy.
func ReadTimeline(rd io.Reader) (*Timeline, error) {
	buf, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	r := &reader{buf: buf}
	if got := r.bytes(len(fileMagic)); r.err != nil || string(got) != string(fileMagic) {
		return nil, fmt.Errorf("snapstore: not a timeline file (bad magic)")
	}
	numDays := r.count(1, "day")
	lens := make([]int, numDays)
	for i := range lens {
		lens[i] = r.count(1, "day record byte")
	}
	if r.err != nil {
		return nil, r.err
	}
	t := &Timeline{days: make([][]byte, numDays)}
	for i, l := range lens {
		t.days[i] = r.bytes(l)
		if r.err != nil {
			return nil, r.err
		}
	}
	return t, r.finish()
}

// LoadFile reads a packed timeline from disk.
func LoadFile(path string) (*Timeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTimeline(f)
}

// WriteFile writes the packed timeline to disk atomically: the bytes
// land in a temp file first and replace path in one rename, so a crash
// or a concurrent reload-watcher poll never observes a torn timeline.
func (t *Timeline) WriteFile(path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := t.WriteTo(w)
		return err
	})
}

func resizeTo(s []int32, n int) []int32 {
	if cap(s) < n {
		s2 := make([]int32, n)
		copy(s2, s)
		return s2
	}
	return s[:n]
}
