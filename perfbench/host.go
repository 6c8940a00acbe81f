package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostStamp records where a result was taken.  Results from different
// core counts or GOMAXPROCS are never compared (see comparable).
type hostStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the git revision when the benchmark runs inside a git
	// work tree, else "unknown".  SourceSHA256 identifies the code under
	// test either way: a digest of go.mod and every Go file under
	// internal/.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func (h hostStamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d %s %q commit=%s source=%.12s",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit, h.SourceSHA256)
}

func stampHost() hostStamp {
	return hostStamp{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		Commit:       gitCommit(),
		SourceSHA256: sourceDigest(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD only when the working directory is itself a
// git work tree, so a plain source checkout never picks up an
// enclosing repository's revision.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and the Go sources under internal/ in
// path order; "" when they cannot be read.
func sourceDigest() string {
	paths := []string{"go.mod"}
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return ""
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return ""
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return ""
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
