// Command maimond is the resident schema-mining service: each dataset is
// loaded, dictionary-encoded, and wrapped in a shared mining session
// once, so concurrent and successive jobs over a dataset reuse its warm
// entropy state; mining jobs run asynchronously on a bounded worker pool,
// results are cached per (session, ε, options), and everything is exposed
// over a JSON HTTP API.
//
// Usage:
//
//	maimond [-addr :8080] [-workers N] [-mine-workers 1]
//	        [-cache-bytes 0] [-entropy-bytes 0]
//	        [-spill-dir ""] [-spill-bytes 0]
//	        [-log-level info] [-log-json] [-debug-addr ""]
//	        [-load name=path.csv ...] [-nursery]
//	        [-coordinator http://w1:8080,http://w2:8080] [-probe-interval 5s]
//
// With -coordinator, the daemon additionally acts as the distributed
// mining coordinator: phase 1 of every job is sharded across the listed
// worker maimond instances (each of which must have the same datasets
// registered) and merged back byte-identically; phase 2 runs locally.
// The job pool is the one bound on concurrent mines: each job runs at
// most one distributed mine, so at most -workers of them run at once.
// Any maimond serves the worker side automatically via POST /v1/shards.
// (The worker-URL flag is -coordinator, not -workers: -workers was
// already taken by the job pool size.)
//
// API (every route but /metrics lives under /v1; see README.md for curl
// examples):
//
//	POST   /v1/datasets?name=N   upload a CSV body and register it
//	GET    /v1/datasets          list datasets
//	DELETE /v1/datasets/{name}   unregister a dataset
//	POST   /v1/jobs              submit a mining job
//	GET    /v1/jobs/{id}         poll status and live mining progress
//	GET    /v1/jobs/{id}/result  fetch schemes / MVDs / metrics when done
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/healthz           liveness
//	GET    /v1/readyz            readiness (503 once shutting down)
//	GET    /metrics              Prometheus text exposition
//
// Observability: every job-lifecycle event is logged through log/slog
// with the job and dataset ids attached (-log-level trims it, -log-json
// switches to JSON lines for log shippers); /metrics exposes the
// counters, gauges and job and shard latency histograms the service and
// its mining sessions maintain (README.md lists each family and what it
// is for); -debug-addr starts a second, private
// listener serving net/http/pprof — keep it off public interfaces.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	maimon "repro"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/service"
)

// loadFlags collects repeated -load name=path.csv values.
type loadFlags []string

func (l *loadFlags) String() string     { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error { *l = append(*l, v); return nil }

// newLogger builds the process logger from the flags: text to stderr by
// default, JSON lines with -log-json, threshold from -log-level.
func newLogger(level string, json bool) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h), nil
}

// debugServer serves net/http/pprof on its own mux — never the public
// one, so profiling endpoints can stay on a loopback-only address.
func debugServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
}

func main() {
	var loads loadFlags
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		workers      = flag.Int("workers", 0, "mining worker pool size — concurrent jobs (0 = GOMAXPROCS)")
		mineWorkers  = flag.Int("mine-workers", 1, "default per-job parallel fan-out (jobs may override with \"workers\"; capped at GOMAXPROCS)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "per-dataset PLI cache memory budget in bytes; cold partitions are evicted past it (0 = unlimited)")
		entropyBytes = flag.Int64("entropy-bytes", 0, "per-dataset entropy-memo memory budget in bytes; cold entropies are evicted past it (0 = unlimited); at most 16 columns, 0 or a budget of at least 8·2^columns bytes keeps the never-evicted dense memo of that size instead; where the memo is hashed, each mining worker keeps a view of up to 2^16 entropies (2 MiB), not counted here; under a budget its peers and the scheme phase read it too, and it lives until the mine ends, so nothing a worker counted is counted again")
		spillDir     = flag.String("spill-dir", "", "disk spill tier root: evicted PLI partitions worth re-reading are demoted into per-dataset segment stores under this directory instead of dropped; re-opened warm on restart (empty = disabled)")
		spillBytes   = flag.Int64("spill-bytes", 0, "per-dataset on-disk budget of the spill tier; oldest segments deleted past it (0 = unlimited)")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		logJSON      = flag.Bool("log-json", false, "emit logs as JSON lines instead of text")
		debugAddr    = flag.String("debug-addr", "", "listen address for the net/http/pprof debug server (empty = disabled; bind to loopback)")
		nursery      = flag.Bool("nursery", false, "preload the paper's nursery dataset as \"nursery\"")

		coordinator   = flag.String("coordinator", "", "comma-separated worker base URLs; when set, phase 1 of every job is sharded across them (distributed mining)")
		probeInterval = flag.Duration("probe-interval", 5*time.Second, "distributed: worker /v1/readyz probe period (negative disables active probing)")
	)
	flag.Var(&loads, "load", "preload a dataset: name=path.csv (repeatable)")
	flag.Parse()

	logger, err := newLogger(*logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "maimond: %v\n", err)
		os.Exit(2)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	// The spill tier (and anything else below the service layer) logs rare
	// events through the default logger; route them to the process one.
	slog.SetDefault(logger)
	tel := service.NewTelemetry(obs.NewRegistry(), logger)

	var sessOpts []maimon.Option
	if *cacheBytes > 0 {
		sessOpts = append(sessOpts, maimon.WithMemoryBudget(*cacheBytes))
	}
	if *entropyBytes > 0 {
		sessOpts = append(sessOpts, maimon.WithEntropyBudget(*entropyBytes))
	}
	reg := service.NewRegistry(sessOpts...)
	if *spillDir != "" {
		reg.SetSpill(*spillDir, *spillBytes)
		logger.Info("spill tier enabled", "dir", *spillDir, "budget_bytes", *spillBytes)
	}
	if *nursery {
		info, err := reg.Add("nursery", datagen.Nursery())
		if err != nil {
			fatal("loading nursery dataset", "error", err)
		}
		logger.Info("dataset loaded", "dataset", info.Name, "rows", info.Rows, "cols", info.Cols)
	}
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal("-load wants name=path.csv", "got", spec)
		}
		r, err := relation.ReadCSVFile(path, true)
		if err != nil {
			fatal("loading dataset file", "path", path, "error", err)
		}
		info, err := reg.Add(name, r)
		if err != nil {
			fatal("registering dataset", "dataset", name, "error", err)
		}
		logger.Info("dataset loaded", "dataset", info.Name, "rows", info.Rows, "cols", info.Cols, "path", path)
	}

	var coord *dist.Coordinator
	if *coordinator != "" {
		var err error
		coord, err = dist.New(dist.Config{
			Workers:       strings.Split(*coordinator, ","),
			ProbeInterval: *probeInterval,
			Registry:      tel.Registry(),
			Logger:        logger,
		})
		if err != nil {
			fatal("building coordinator", "error", err)
		}
		defer coord.Close()
		logger.Info("distributed mining enabled",
			"workers", coord.WorkerURLs(), "shards", coord.NumShards())
	}

	mgr := service.NewManager(reg, service.Config{
		Workers:     *workers,
		MineWorkers: *mineWorkers,
		Telemetry:   tel,
		Coordinator: coord,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.NewServer(mgr),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if *debugAddr != "" {
		dbg := debugServer(*debugAddr)
		go func() {
			logger.Info("pprof debug server listening", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof debug server", "error", err)
			}
		}()
		defer dbg.Close()
	}
	logger.Info("maimond listening", "addr", *addr, "workers", mgr.Workers())

	select {
	case err := <-errc:
		fatal("serving", "error", err)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Error("shutdown", "error", err)
	}
	mgr.Close() // cancels queued and running jobs, drains the pool
	// With the pool drained no job can reach a session; sync every spill
	// tier's segments, which the next start rescans to open warm.
	if err := reg.CloseAll(); err != nil {
		logger.Error("closing sessions", "error", err)
	}
}
