// Command sanserve serves paper figures and snapshot statistics over
// HTTP from packed snapstore timelines (see `sanstore pack`).
//
// Usage:
//
//	sanserve -mount gplus=full.tl,view.tl [-addr :8766] [-cache 256] [-snapcache 8]
//	sanserve -workspace ws                      (a `sangen sweep` output directory)
//	sanserve -mount gplus=full.tl -audit audit.ndjson -pprof :6060
//	sanserve -mount gplus=full.tl -loadgen -fig 2 -c 32 -dur 3s
//
// Serving mode mounts each timeline pair and answers
// /v1/figures/{id}, /v1/compare/{id}, /v1/timelines, /v1/scenarios,
// /v1/snapshots/{day}/stats, /healthz and /metrics until
// SIGINT/SIGTERM, then drains in-flight requests (and the async
// analytics pipeline) and exits.  A -workspace directory mounts every
// scenario run from its manifest in one flag; -reload-interval polls
// that manifest and hot-swaps changed scenarios without a restart
// (POST /v1/admin/reload forces a reload immediately), and
// -max-builds bounds concurrent uncached figure builds, shedding
// excess cold requests with 429 + Retry-After.
//
// Observability: requests are logged structurally (log/slog, -log
// text|json) with per-request IDs; -audit FILE streams one NDJSON
// audit row per request through the non-blocking analytics recorder;
// /metrics exposes per-endpoint latency histograms with p50/p95/p99
// gauges; -pprof ADDR serves net/http/pprof on a separate mux/port so
// profiling is never exposed on the public listener.
//
// Loadgen mode skips the listener entirely: it drives the handler
// in-process with -c concurrent workers for -dur and prints the
// cached-request throughput with latency percentiles; -dump-metrics
// appends the final /metrics page.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
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
	var (
		addr        = flag.String("addr", ":8766", "listen address")
		workspace   = flag.String("workspace", "", "scenario-sweep workspace directory to mount (see `sangen sweep`)")
		reloadEvery = flag.Duration("reload-interval", 0, "poll the workspace manifest and hot-reload changed scenarios at this interval (0 = only POST /v1/admin/reload)")
		maxBuilds   = flag.Int("max-builds", 0, "max concurrent uncached figure builds; excess cold requests get 429 + Retry-After (0 = unlimited)")
		cache       = flag.Int("cache", 256, "figure result cache entries")
		snapcache   = flag.Int("snapcache", 8, "reconstructed snapshots cached per mounted timeline")
		quick       = flag.Bool("quick", false, "quick experiment config for model figures")
		seed        = flag.Uint64("seed", 0, "override experiment seed")
		logFormat   = flag.String("log", "text", "structured log format: text or json")
		verbose     = flag.Bool("v", false, "log at debug level")
		auditPath   = flag.String("audit", "", "append per-request NDJSON audit rows to this file")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. :6060)")
		loadgen     = flag.Bool("loadgen", false, "run the in-process load generator instead of serving")
		stream      = flag.Bool("stream", false, "loadgen: drive /v1/stream walks instead of figure requests (reports rows/s)")
		fig         = flag.String("fig", "2", "loadgen: figure ID to request")
		conc        = flag.Int("c", 32, "loadgen: concurrent workers")
		dur         = flag.Duration("dur", 3*time.Second, "loadgen: run duration")
		dumpMetrics = flag.Bool("dump-metrics", false, "loadgen: print the final /metrics page after the run")
		paths       = flag.String("paths", "", "loadgen: comma-separated request paths cycled round-robin (overrides -fig; only the first is cache-warmed)")
		p99Bound    = flag.Duration("p99-bound", 0, "loadgen: fail if the first path's p99 latency exceeds this bound (0 = no bound)")
	)
	var mounts []mountFlag
	flag.Func("mount", "timeline mount as name=full.tl[,view.tl] (repeatable)", func(v string) error {
		name, paths, ok := strings.Cut(v, "=")
		if !ok || name == "" || paths == "" {
			return fmt.Errorf("want name=full.tl[,view.tl], got %q", v)
		}
		full, view, _ := strings.Cut(paths, ",")
		mounts = append(mounts, mountFlag{name: name, full: full, view: view})
		return nil
	})
	flag.Parse()
	if len(mounts) == 0 && *workspace == "" {
		fmt.Fprintln(os.Stderr, "sanserve: at least one -mount name=full.tl[,view.tl] or -workspace DIR is required")
		fmt.Fprintln(os.Stderr, "          (produce timelines with: sanstore pack -out full.tl, or a workspace with: sangen sweep)")
		os.Exit(2)
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := obs.NewLogger(os.Stderr, *logFormat, level)

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	var auditFile *os.File
	opts := sanserve.Options{
		Cfg:           cfg,
		CacheEntries:  *cache,
		SnapCacheDays: *snapcache,
		MaxBuilds:     *maxBuilds,
		Logger:        logger,
	}
	if *auditPath != "" {
		f, err := os.OpenFile(*auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Error("opening audit sink", "err", err)
			os.Exit(1)
		}
		auditFile = f
		opts.AuditSink = f
	}

	srv := sanserve.New(opts)
	if *workspace != "" {
		if err := srv.MountWorkspace(*workspace); err != nil {
			logger.Error("mounting workspace", "workspace", *workspace, "err", err)
			os.Exit(1)
		}
		logger.Info("mounted scenario workspace", "workspace", *workspace)
	}
	for _, m := range mounts {
		if err := srv.MountFiles(m.name, m.full, m.view); err != nil {
			logger.Error("mounting timeline", "name", m.name, "err", err)
			os.Exit(1)
		}
		logger.Info("mounted timeline", "name", m.name, "full", m.full, "view", orSame(m.view))
	}

	// close drains the analytics pipeline and syncs the audit file;
	// both exits (loadgen and serving) go through it.
	closeAll := func() {
		srv.Close()
		if auditFile != nil {
			auditFile.Close()
		}
	}

	if *loadgen && *stream {
		path := ""
		switch {
		case *paths != "":
			path = strings.TrimSpace(strings.Split(*paths, ",")[0])
		case len(mounts) > 0:
			path = "/v1/stream/" + mounts[0].name
		}
		if path == "" {
			logger.Error("loadgen -stream needs an explicit -mount or -paths")
			os.Exit(1)
		}
		logger.Info("stream loadgen starting", "path", path, "workers", *conc, "duration", *dur)
		report := sanserve.LoadGenStream(srv.Handler(), path, *conc, *dur)
		fmt.Println(report)
		closeAll()
		if report.Errors > 0 || report.Streams == 0 {
			os.Exit(1)
		}
		return
	}

	if *loadgen {
		var reqPaths []string
		if *paths != "" {
			for _, p := range strings.Split(*paths, ",") {
				if p = strings.TrimSpace(p); p != "" {
					reqPaths = append(reqPaths, p)
				}
			}
		} else if len(mounts) > 0 {
			reqPaths = []string{fmt.Sprintf("/v1/figures/%s?timeline=%s", *fig, mounts[0].name)}
		}
		if len(reqPaths) == 0 {
			logger.Error("loadgen needs an explicit -mount or -paths")
			os.Exit(1)
		}
		logger.Info("loadgen starting", "paths", strings.Join(reqPaths, ","), "workers", *conc, "duration", *dur)
		report := sanserve.LoadGenPaths(srv.Handler(), reqPaths, *conc, *dur)
		fmt.Println(report)
		for _, ps := range report.PerPath {
			fmt.Printf("  path %s: %d requests, %d errors, %d shed (p50 %v, p95 %v, p99 %v)\n",
				ps.Path, ps.Requests, ps.Errors, ps.Shed, ps.P50, ps.P95, ps.P99)
		}
		if *dumpMetrics {
			srv.Analytics().Drain()
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			fmt.Print(rec.Body.String())
		}
		closeAll()
		if report.Errors > 0 {
			os.Exit(1)
		}
		if *p99Bound > 0 && report.PerPath[0].P99 > *p99Bound {
			logger.Error("cached-path p99 exceeds bound",
				"path", report.PerPath[0].Path, "p99", report.PerPath[0].P99, "bound", *p99Bound)
			os.Exit(1)
		}
		return
	}

	if *reloadEvery > 0 {
		if *workspace == "" {
			logger.Error("-reload-interval requires -workspace")
			os.Exit(1)
		}
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
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		logger.Error("listener failed", "err", err)
		os.Exit(1)
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
	closeAll()
	logger.Info("bye",
		"analytics_recorded", srv.Analytics().Recorded(),
		"analytics_dropped", srv.Analytics().Dropped())
}

func orSame(view string) string {
	if view == "" {
		return "same file"
	}
	return view
}
