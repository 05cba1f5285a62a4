// Command hilightd serves the HiLight compiler over HTTP: a
// compile-as-a-service daemon with a content-addressed schedule cache
// and admission control, or a cluster coordinator in front of such
// daemons.
//
// Usage:
//
//	hilightd [-addr :8753] [-node-id NAME] [-max-jobs N] [-journal DIR]
//	         [-drain-timeout D] [-workers N] [-queue N] [-cache-bytes N]
//	         [-timeout D] [-max-timeout D] [-watchdog D] [-tenant-quota N]
//	         [-log-events=BOOL]
//	hilightd -coordinator URL1,URL2,... [-addr :8753] [-node-id NAME]
//	         [-max-jobs N] [-journal DIR] [-drain-timeout D]
//	         [-probe-interval D]
//
// The first form compiles locally. With -coordinator, hilightd runs as
// a cluster coordinator instead: sync compiles and async batch units
// are consistent-hashed across the listed workers on the request
// fingerprint (so each worker's schedule cache shards naturally), async
// units flow through a work-stealing queue, and workers failing their
// periodic readiness probe are drained out of the hash ring. Client
// JSON is byte-identical either way — node-to-node traffic uses a
// compact binary-payload envelope transcoded back at the coordinator.
// A flag the chosen mode does not use is an error (exit status 2).
//
// With -journal, in either mode, acknowledged async batches are
// written to a durable append-only journal before the 202 returns; on
// startup the journal is replayed — finished batches are served from
// the log, unfinished ones re-run only their incomplete jobs — and
// compacted. A kill -9 mid-batch therefore loses no acknowledged work,
// and a resumed batch keeps its submit's X-Hilight-Tenant and
// X-Hilight-Priority. With -watchdog, a compile that makes no
// routing-cycle progress for a full window is aborted (504) so a stuck
// compile cannot pin a worker forever.
//
// Endpoints:
//
//	POST /v1/compile      synchronous compile (cached by fingerprint)
//	POST /v1/jobs         submit an async batch (CompileAll semantics)
//	GET  /v1/jobs/{id}    poll a batch; results once done
//	POST /v1/defects      live defect feed: recompile the cached schedules it breaks
//	GET  /v1/methods      mapping methods accepted by "method"
//	GET  /v1/benchmarks   built-in benchmark circuits
//	GET  /healthz         liveness (always 200 while the process runs)
//	GET  /readyz          readiness (503 once draining)
//	GET  /metrics         Prometheus text exposition
//
// Request bodies are capped at 8 MiB (413 beyond), and a body that
// would expand past the request bounds — 4,096 declared qubits, 2^20
// gates per source or per batch, 2^23 grid tiles per batch, a grid or
// factory side over 2,048 — is a 400 before it is admitted, from a node
// and through a coordinator alike.
//
// SIGINT/SIGTERM trigger a graceful shutdown: readiness flips, new
// compile work is rejected with 503, and in-flight compiles and async
// batches drain (bounded by -drain-timeout) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"hilight/internal/cluster"
	"hilight/internal/obs"
	"hilight/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the daemon body, separated from main so the e2e test can boot
// it in-process on an ephemeral port and drive it with real signals.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hilightd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8753", "listen address (host:port; port 0 picks an ephemeral port)")
		workers      = fs.Int("workers", 0, "max concurrent compiles (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 64, "max compiles queued beyond the workers (negative disables queueing; a full queue answers 429)")
		cacheBytes   = fs.Int64("cache-bytes", 64<<20, "schedule cache capacity in bytes (negative disables)")
		maxJobs      = fs.Int("max-jobs", 64, "max retained async batches")
		timeout      = fs.Duration("timeout", 60*time.Second, "default per-compile deadline")
		maxTimeout   = fs.Duration("max-timeout", 10*time.Minute, "cap on request-supplied deadlines")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight work")
		logEvents    = fs.Bool("log-events", true, "log async batch job lifecycle events to stderr")
		journalDir   = fs.String("journal", "", "directory for the durable job journal (empty disables; async batches then don't survive restarts)")
		watchdog     = fs.Duration("watchdog", 2*time.Minute, "abort compiles with no routing-cycle progress for this long (0 disables)")
		nodeID       = fs.String("node-id", "", "node name stamped in the X-Hilight-Node response header (cluster deployments)")
		tenantQuota  = fs.Int("tenant-quota", 0, "max concurrently admitted compiles+batches per tenant (X-Hilight-Tenant header; 0 disables)")
		coordinator  = fs.String("coordinator", "", "run as cluster coordinator over this comma-separated worker URL list instead of compiling locally")
		probeIvl     = fs.Duration("probe-interval", 250*time.Millisecond, "coordinator worker readiness probe period")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A flag the chosen mode ignores is a mistake worth stopping for: a
	// coordinator started with -workers would otherwise run as though it
	// had been sized.
	ignored := []string{"workers", "queue", "cache-bytes", "timeout", "max-timeout",
		"watchdog", "tenant-quota", "log-events"}
	mode := "with -coordinator"
	if *coordinator == "" {
		ignored, mode = []string{"probe-interval"}, "without -coordinator"
	}
	bad := 0
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(ignored, f.Name) {
			fmt.Fprintf(stderr, "hilightd: flag -%s does not apply %s\n", f.Name, mode)
			bad++
		}
	})
	if bad > 0 {
		return 2
	}

	if *coordinator != "" {
		var urls []string
		for _, w := range strings.Split(*coordinator, ",") {
			if w = strings.TrimSpace(w); w != "" {
				urls = append(urls, w)
			}
		}
		co, err := cluster.New(cluster.Config{
			Workers:       urls,
			NodeID:        *nodeID,
			ProbeInterval: *probeIvl,
			MaxStoredJobs: *maxJobs,
			JournalDir:    *journalDir,
		})
		if err != nil {
			fmt.Fprintln(stderr, "hilightd:", err)
			return 1
		}
		return serve(co, *addr, fmt.Sprintf("hilightd coordinating %d workers", len(urls)), *drainTimeout, stdout, stderr)
	}

	cfg := service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheBytes:     *cacheBytes,
		MaxStoredJobs:  *maxJobs,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		JournalDir:     *journalDir,
		WatchdogWindow: *watchdog,
		NodeID:         *nodeID,
		TenantQuota:    *tenantQuota,
	}
	if *logEvents {
		cfg.Events = obs.NewLogObserver(stderr)
	}
	srv, err := service.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "hilightd:", err)
		return 1
	}
	return serve(srv, *addr, "hilightd listening", *drainTimeout, stdout, stderr)
}

// daemon is what serve runs: a single node (service.Server) or a
// cluster coordinator (cluster.Coordinator).
type daemon interface {
	Handler() http.Handler
	Drain()
	Shutdown(context.Context) error
}

// serve listens on addr, announces the address after banner, serves d
// until SIGINT or SIGTERM, then drains it and returns the exit code.
func serve(d daemon, addr, banner string, drainTimeout time.Duration, stdout, stderr io.Writer) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(stderr, "hilightd:", err)
		return 1
	}
	// The resolved address line is machine-readable on purpose: with
	// -addr :0 it is how callers (the e2e tests, scripts) learn the
	// ephemeral port.
	fmt.Fprintf(stdout, "%s on http://%s\n", banner, ln.Addr())

	hs := &http.Server{Handler: d.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintln(stderr, "hilightd:", err)
		return 1
	}
	stop() // restore default signal handling: a second signal kills hard

	fmt.Fprintln(stderr, "hilightd: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Order matters: flip readiness and reject new work first, then wait
	// for in-flight HTTP requests, then for async batches.
	d.Drain()
	code := 0
	if err := hs.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(stderr, "hilightd: http drain:", err)
		code = 1
	}
	if err := d.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(stderr, "hilightd:", err)
		code = 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "hilightd:", err)
		code = 1
	}
	fmt.Fprintln(stderr, "hilightd: shutdown complete")
	return code
}
