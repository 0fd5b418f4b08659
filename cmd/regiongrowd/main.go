// Command regiongrowd serves split-and-merge segmentation over HTTP: PGM
// uploads (or the paper's six images by name) in, labels as PGM or JSON
// with per-region statistics out, through a bounded worker pool with an
// LRU result cache.
//
// Usage:
//
//	regiongrowd [-addr :8080] [-workers N] [-queue D] [-cache E]
//	            [-maxbody BYTES] [-drain TIMEOUT] [-timeout D] [-warm]
//	            [-jobcap N] [-jobttl D] [-cluster host:port,...]
//	            [-instance ID] [-pprof]
//
// With -pprof, the daemon additionally serves Go's profiling endpoints
// under /debug/pprof/ (CPU via ?seconds=N, heap, goroutine, and the rest),
// so serving hot spots can be ranked on a live process with `go tool
// pprof`. The endpoints are off by default: they reveal internals and cost
// CPU while sampling, so only enable them where operators can reach them.
//
// -instance names this server's stable identity (default: a random ID
// minted at startup). The instance is reported on /v1/stats and embedded
// in every job ID, which is how a regiongrow-gateway fleet routes job
// lookups to the backend owning the record; give each backend behind a
// gateway a distinct, stable -instance.
//
// With -cluster, the daemon also serves engine=dist: each such job is
// coordinated across the listed regiongrow-worker processes over TCP,
// which distributes the compute off this host while keeping results
// byte-identical to the sequential engine. Without -cluster, engine=dist
// requests are rejected with a hint.
//
// Cluster membership is dynamic: -cluster only seeds it. Workers join and
// leave a running daemon through POST /v1/cluster/join and /v1/cluster/
// leave (effective at the next job, no restart of either side), a worker
// lost mid-job triggers a retry across the members still answering health
// probes, and GET /v1/cluster reports per-worker health.
//
// Endpoints:
//
//	POST   /v1/jobs?engine=E&threshold=T&tie=P&seed=S&maxsquare=M
//	                &image=NAME&labels=1
//	                   enqueue an asynchronous job; answers 202 with its
//	                   versioned record (ID, state, progress)
//	GET    /v1/jobs/{id}          current job record; result once done
//	GET    /v1/jobs/{id}/events   the job's stage events as SSE, replay
//	                              then live, ending in done/failed/canceled
//	DELETE /v1/jobs/{id}          cancel: compute aborts within one
//	                              split/merge iteration
//	POST   /v1/batch   fan a JSON manifest (paper-image/config pairs) or
//	                   a multipart set of PGMs out as one job per item;
//	                   answers per-item job IDs
//	POST   /v1/segment?…&format=json|pgm
//	                   the synchronous compatibility path, implemented on
//	                   the same job machinery
//	GET    /v1/cluster            membership with per-worker health
//	POST   /v1/cluster/join?addr=H:P    add a worker (next job onward)
//	POST   /v1/cluster/leave?addr=H:P   drop a worker (last one refused)
//	GET    /v1/stats   job-store and queue depth, in-flight jobs, cache
//	                   hit/miss and cancellation counters, per-stage
//	                   progress gauges, per-engine latency histograms
//	GET    /healthz    liveness
//
// The body of POST /v1/segment and /v1/jobs is a P2/P5 PGM; with
// ?image=image1…image6 the body is ignored and the named paper image is
// segmented instead. When the job queue (or the -jobcap record store) is
// full the server answers 429 rather than queueing unboundedly; finished
// job records stay retrievable for -jobttl. With -timeout, a synchronous
// request whose compute exceeds the deadline is answered 504 naming the
// stage it reached, an asynchronous job is failed with the same error,
// and the compute is cancelled within one split/merge iteration — as it
// also is when a synchronous client disconnects, unless -warm keeps
// abandoned jobs running to warm the result cache. On SIGINT/SIGTERM the
// server stops accepting connections, drains in-flight requests (up to
// -drain), then drains the worker pool and exits.
//
// The regiongrow/client package is the typed Go SDK for this service.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"regiongrow/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("regiongrowd: ")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "job queue depth (full queue answers 429)")
	cache := flag.Int("cache", 256, "LRU result cache entries, each a segmentation's labels plus its region statistics (negative disables)")
	maxBody := flag.Int64("maxbody", 16<<20, "maximum PGM upload size in bytes")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	timeout := flag.Duration("timeout", 0, "per-request compute deadline; exceeding it answers 504 with the stage reached (0 = no limit)")
	warm := flag.Bool("warm", false, "keep computing abandoned jobs (disconnect or deadline) so results still warm the cache")
	jobCap := flag.Int("jobcap", 1024, "job record store capacity (full store of unfinished jobs answers 429)")
	jobTTL := flag.Duration("jobttl", 15*time.Minute, "how long finished job records stay retrievable")
	cluster := flag.String("cluster", "", "comma-separated regiongrow-worker addresses; enables the dist engine")
	instance := flag.String("instance", "", "stable instance ID reported on /v1/stats and embedded in job IDs (empty = random)")
	pprofOn := flag.Bool("pprof", false, "serve Go profiling endpoints under /debug/pprof/")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: regiongrowd [-addr :8080] [-workers N] [-queue D] [-cache E] [-maxbody BYTES] [-drain TIMEOUT] [-timeout D] [-warm] [-jobcap N] [-jobttl D] [-cluster host:port,...] [-instance ID] [-pprof]")
		os.Exit(2)
	}
	var clusterAddrs []string
	if *cluster != "" {
		for _, a := range strings.Split(*cluster, ",") {
			if a = strings.TrimSpace(a); a != "" {
				clusterAddrs = append(clusterAddrs, a)
			}
		}
	}

	svc := server.New(server.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *timeout,
		WarmAbandoned:  *warm,
		JobCapacity:    *jobCap,
		JobTTL:         *jobTTL,
		ClusterWorkers: clusterAddrs,
		Instance:       *instance,
	})
	var handler http.Handler = svc
	if *pprofOn {
		// The service handler owns "/", so the pprof routes are mounted on
		// an explicit mux in front of it rather than the default mux.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		mux.Handle("/", svc)
		handler = mux
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (instance=%s workers=%d queue=%d cache=%d)",
		*addr, svc.Instance(), svc.Stats().Queue.Workers, *queue, *cache)

	select {
	case <-ctx.Done():
		log.Printf("shutdown signal received, draining for up to %v", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		svc.Close()
		log.Print("drained, exiting")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
}
