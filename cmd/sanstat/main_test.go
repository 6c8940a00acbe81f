package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// wantReport is sanstat's output for sangen -model san -n 400 -seed 7,
// recorded before HyperANF moved to flat register matrices; the
// effective diameter line is HyperANF at precision 8.
const wantReport = `social nodes      405
social links      4226
attribute nodes   112
attribute links   1697
largest WCC       405
reciprocity       0.0549
social density    10.435
attribute density 15.152
social clustering 0.2583   (Algorithm 2, K=105967)
attr clustering   0.0533
assortativity     -0.3109
attr assortativity -0.3009
outdegree          best=inconclusive lognormal(mu=0.86 sigma=1.63 KS=0.123)  power-law(alpha=2.41 xmin=16 KS=0.055)
indegree           best=lognormal    lognormal(mu=1.99 sigma=1.11 KS=0.045)  power-law(alpha=2.46 xmin=12 KS=0.078)
attribute degree   best=inconclusive lognormal(mu=0.76 sigma=1.09 KS=0.056)  power-law(alpha=3.67 xmin=10 KS=0.074)
attr social degree best=inconclusive lognormal(mu=-0.00 sigma=2.27 KS=0.286)  power-law(alpha=1.61 xmin=2 KS=0.079)
effective diameter 4.43 (90th percentile, HyperANF)
`

// sanText returns the san text of the graph sangen -model san -n 400
// -seed 7 prints.
func sanText(t *testing.T) []byte {
	t.Helper()
	p := core.NewDefaultParams(400)
	p.Seed = 7
	var buf bytes.Buffer
	if _, err := core.Generate(p).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReportPinned pins sanstat's full output on a small generated SAN,
// read from stdin and from -in.
func TestReportPinned(t *testing.T) {
	text := sanText(t)
	var out, errOut bytes.Buffer
	if code := run(nil, bytes.NewReader(text), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if out.String() != wantReport {
		t.Errorf("stdin report:\n%s\nwant:\n%s", out.String(), wantReport)
	}

	path := filepath.Join(t.TempDir(), "g.san")
	if err := os.WriteFile(path, text, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-in", path, "-diameter=false"}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("-in: exit %d, stderr %q", code, errOut.String())
	}
	want := strings.TrimSuffix(wantReport, "effective diameter 4.43 (90th percentile, HyperANF)\n")
	if out.String() != want {
		t.Errorf("-in -diameter=false report:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestExitCodes pins run's exit status: 2 for a flag parse error, 0 for
// -h, and 1 when the input cannot be opened or parsed.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		stdin string
		want  int
	}{
		{"unknown flag", []string{"-bogus"}, "", 2},
		{"bad value", []string{"-seed", "x"}, "", 2},
		{"help", []string{"-h"}, "", 0},
		{"missing file", []string{"-in", filepath.Join(t.TempDir(), "absent.san")}, "", 1},
		{"malformed input", nil, "not a san\n", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, strings.NewReader(tc.stdin), &out, &errOut); code != tc.want {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.want, errOut.String())
			}
			if out.Len() != 0 {
				t.Errorf("wrote %q to stdout", out.String())
			}
		})
	}
}
