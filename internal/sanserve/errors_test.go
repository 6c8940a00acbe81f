package sanserve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/snapstore"
)

// TestHandlerErrorBodies is the error-path contract of every handler:
// each bad request must produce the right status code AND a parseable
// JSON error body whose message names the problem — clients scripting
// against the API get diagnostics, not bare status lines.
func TestHandlerErrorBodies(t *testing.T) {
	s := newTestServer(t, Options{}) // one mount: "gplus", 12 days
	h := s.Handler()
	for _, tc := range []struct {
		name string
		path string
		code int
		msg  string // required substring of the JSON "error" field
	}{
		{"bad figure id", "/v1/figures/nope", 404, `unknown experiment "nope"`},
		{"unknown timeline", "/v1/figures/2?timeline=ghost", 404, `unknown timeline "ghost"`},
		{"day range outside timeline", "/v1/figures/2?days=0-99", 400, "outside timeline [1,12]"},
		{"malformed day range", "/v1/figures/2?days=bogus", 400, `bad days "bogus"`},
		{"conflicting day selectors", "/v1/figures/2?day=3&days=1-5", 400, "conflicting day selectors"},
		{"conflicting selectors on sweep", "/v1/snapshots/stats?day=3&days=1-5", 400, "conflicting day selectors"},
		{"conflicting selectors on compare", "/v1/compare/2?day=2&days=2-4", 400, "conflicting day selectors"},
		{"reversed day range", "/v1/figures/2?days=9-3", 400, "outside timeline"},
		{"malformed single day", "/v1/figures/2?day=x", 400, `bad day "x"`},
		{"unsupported format", "/v1/figures/2?format=xml", 400, `unknown format "xml"`},
		{"compare bad figure id", "/v1/compare/nope", 404, `unknown experiment "nope"`},
		{"compare unknown scenario", "/v1/compare/2?scenarios=gplus,ghost", 404, `unknown scenario "ghost"`},
		{"compare empty scenario list", "/v1/compare/2?scenarios=,,", 404, "empty scenario list"},
		{"compare bad day range", "/v1/compare/2?days=0-99", 400, "outside timeline"},
		{"compare non-json format", "/v1/compare/2?format=gob", 400, "compare supports only json"},
		{"snapshot day out of range", "/v1/snapshots/99/stats", 400, "outside timeline [1,12]"},
		{"snapshot malformed day", "/v1/snapshots/abc/stats", 400, `day "abc"`},
		{"snapshot bad source", "/v1/snapshots/12/stats?source=half", 400, `unknown source "half"`},
		{"sweep bad day range", "/v1/snapshots/stats?days=5-1", 400, "outside timeline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := get(t, h, tc.path)
			if rec.Code != tc.code {
				t.Fatalf("%s: got %d, want %d (%s)", tc.path, rec.Code, tc.code, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: error content type %q, want application/json", tc.path, ct)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("%s: error body is not JSON: %v (%s)", tc.path, err, rec.Body.String())
			}
			if body.Error == "" {
				t.Fatalf("%s: empty error message", tc.path)
			}
			if !strings.Contains(body.Error, tc.msg) {
				t.Errorf("%s: error %q does not mention %q", tc.path, body.Error, tc.msg)
			}
		})
	}
	// None of the failures may have occupied a result-cache slot.
	if n := s.cache.Len(); n != 0 {
		t.Errorf("error responses occupy %d cache slots", n)
	}
}

// TestCorruptDayFigureError pins the build-failure path end to end: a
// mount whose full timeline has one bit-flipped day record (inserted
// directly, past Mount's validation) answers a dataset figure with a
// 500 naming that day, counted as a figure error rather than a
// recovered panic.
func TestCorruptDayFigureError(t *testing.T) {
	s := newTestServer(t, Options{})
	full, view := testTimelines(t)
	const day = 5
	var buf bytes.Buffer
	if _, err := full.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	off := len(b)
	for i := day; i < full.NumDays(); i++ {
		off -= full.DaySize(i)
	}
	b[off] ^= 1 // the day record's tag byte
	bad, err := snapstore.ReadTimeline(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.mounts["bad"] = &Mount{Name: "bad", Full: bad, View: view, gen: s.mountGen.Add(1),
		ds: experiments.NewTimelineDataset(s.opts.Cfg, bad, view)}
	s.mu.Unlock()

	errsBefore, panicsBefore := s.met.figureErrors.Load(), s.met.panics.Load()
	rec := get(t, s.Handler(), "/v1/figures/2?timeline=bad")
	if rec.Code != 500 || !strings.Contains(rec.Body.String(), "day 5:") {
		t.Fatalf("corrupt mount: %d %s, want 500 naming day 5", rec.Code, rec.Body.String())
	}
	if got := s.met.figureErrors.Load(); got != errsBefore+1 {
		t.Errorf("figure errors %d -> %d, want one more", errsBefore, got)
	}
	if got := s.met.panics.Load(); got != panicsBefore {
		t.Errorf("build failure counted as %d recovered panics", got-panicsBefore)
	}
}
