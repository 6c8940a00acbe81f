// Command sanserve serves paper figures and snapshot statistics over
// HTTP from packed snapstore timelines (see `sangen -stream-out`).
//
// Usage:
//
//	sanserve -mount gplus=full.tl,view.tl [-addr :8766] [-cache 256]
//	sanserve -workspace ws                      (a `sangen sweep` output directory)
//	sanserve -mount gplus=full.tl -audit audit.ndjson -pprof :6060
//
// sanserve mounts each timeline pair and answers /v1/figures/{id},
// /v1/compare/{id}, /v1/stream/{timeline}, /v1/timelines,
// /v1/scenarios, /v1/snapshots/{day}/stats, /healthz and /metrics
// until SIGINT/SIGTERM, then ends in-flight streams with a terminal
// error record, drains in-flight requests and the async analytics
// pipeline, and exits 0.  A -workspace directory mounts every scenario
// run from its manifest in one flag; -reload-interval polls that
// manifest and hot-swaps changed scenarios without a restart (POST
// /v1/admin/reload forces a reload immediately), and -max-builds
// bounds concurrent uncached figure builds, shedding excess cold
// requests with 429 + Retry-After.  -addr 127.0.0.1:0 picks a free
// port; the "listening" log line names the bound address.
//
// Exit codes: 0 after a clean shutdown or -h, 1 when a timeline, the
// workspace, the audit file or the listener fails, and 2 for a usage
// error (bad flag value, no mount, -reload-interval without
// -workspace), reported before anything is mounted.
//
// Observability: requests are logged structurally (log/slog, -log
// text|json) with per-request IDs; -audit FILE streams one NDJSON
// audit row per request through the non-blocking analytics recorder;
// /metrics exposes per-endpoint latency histograms with p50/p95/p99
// gauges; -pprof ADDR serves net/http/pprof on a separate mux/port so
// profiling is never exposed on the public listener.  Load and latency
// are measured by perfbench's hot-serve workload against this server.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sanserve"
)

// mountFlag accumulates repeated -mount name=full.tl[,view.tl] values.
type mountFlag struct {
	name, full, view string
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// run parses args, mounts the timelines and serves until ctx is
// canceled, then drains and returns the exit code.  Logs, usage and
// flag errors go to stderr; the server writes nothing else.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sanserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8766", "listen address (port 0 picks a free port)")
		workspace   = fs.String("workspace", "", "scenario-sweep workspace directory to mount (see `sangen sweep`)")
		reloadEvery = fs.Duration("reload-interval", 0, "poll the workspace manifest and hot-reload changed scenarios at this interval (0 = only POST /v1/admin/reload)")
		maxBuilds   = fs.Int("max-builds", 0, "max concurrent uncached figure builds; excess cold requests get 429 + Retry-After (0 = unlimited)")
		cache       = fs.Int("cache", 256, "figure result cache entries")
		quick       = fs.Bool("quick", false, "quick experiment config for model figures")
		seed        = fs.Uint64("seed", 0, "override experiment seed")
		logFormat   = fs.String("log", "text", "structured log format: text or json")
		verbose     = fs.Bool("v", false, "log at debug level")
		auditPath   = fs.String("audit", "", "append per-request NDJSON audit rows to this file")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this separate address (e.g. :6060)")
	)
	var mounts []mountFlag
	fs.Func("mount", "timeline mount as name=full.tl[,view.tl] (repeatable)", func(v string) error {
		name, paths, ok := strings.Cut(v, "=")
		if !ok || name == "" || paths == "" {
			return fmt.Errorf("want name=full.tl[,view.tl], got %q", v)
		}
		full, view, _ := strings.Cut(paths, ",")
		mounts = append(mounts, mountFlag{name: name, full: full, view: view})
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usageErr := func(msg string) int {
		fmt.Fprintln(stderr, "sanserve:", msg)
		return 2
	}
	switch {
	case len(mounts) == 0 && *workspace == "":
		return usageErr("at least one -mount name=full.tl[,view.tl] or -workspace DIR is required\n" +
			"          (produce a pair with: sangen -model gplus -stream-out gplus, or a workspace with: sangen sweep)")
	case *logFormat != "text" && *logFormat != "json":
		return usageErr(fmt.Sprintf("-log must be text or json, got %q", *logFormat))
	case *reloadEvery > 0 && *workspace == "":
		return usageErr("-reload-interval requires -workspace")
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := obs.NewLogger(stderr, *logFormat, level)

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	opts := sanserve.Options{
		Cfg:          cfg,
		CacheEntries: *cache,
		MaxBuilds:    *maxBuilds,
		Logger:       logger,
	}
	if *auditPath != "" {
		f, err := os.OpenFile(*auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Error("opening audit sink", "err", err)
			return 1
		}
		defer f.Close()
		opts.AuditSink = f
	}

	// Close drains the analytics pipeline into the audit file, so it
	// runs before the file's deferred Close; it is idempotent.
	srv := sanserve.New(opts)
	defer srv.Close()
	if *workspace != "" {
		if err := srv.MountWorkspace(*workspace); err != nil {
			logger.Error("mounting workspace", "workspace", *workspace, "err", err)
			return 1
		}
		logger.Info("mounted scenario workspace", "workspace", *workspace)
	}
	for _, m := range mounts {
		if err := srv.MountFiles(m.name, m.full, m.view); err != nil {
			logger.Error("mounting timeline", "name", m.name, "err", err)
			return 1
		}
		logger.Info("mounted timeline", "name", m.name, "full", m.full, "view", orSame(m.view))
	}

	if *reloadEvery > 0 {
		stopWatch := srv.WatchWorkspace(*reloadEvery)
		defer stopWatch()
		logger.Info("workspace watcher started", "interval", *reloadEvery)
	}

	if *pprofAddr != "" {
		// pprof gets its own mux and listener so profiling endpoints
		// are never reachable through the public API address.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 5 * time.Second}
		defer psrv.Close()
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listener failed", "err", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String())
	select {
	case err := <-errc:
		logger.Error("listener failed", "err", err)
		return 1
	case <-ctx.Done():
	}
	logger.Info("shutting down, draining in-flight requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Streams first: each in-flight /v1/stream response gets a terminal
	// NDJSON error record and unwinds, so Shutdown below is not stuck
	// waiting out long-running walks (and no client sees a cut socket).
	if err := srv.DrainStreams(shutCtx); err != nil {
		logger.Warn("stream drain", "err", err)
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "err", err)
	}
	srv.Close()
	logger.Info("bye",
		"analytics_recorded", srv.Analytics().Recorded(),
		"analytics_dropped", srv.Analytics().Dropped())
	return 0
}

func orSame(view string) string {
	if view == "" {
		return "same file"
	}
	return view
}
