// Command scorpion-server serves datasets through Scorpion's JSON API —
// the backend half of the paper's end-to-end exploration tool (Figure 2),
// grown into a multi-table serving process: a catalog of named tables and
// an async explain job service scheduled against one global worker budget.
//
// Usage:
//
//	scorpion-server -csv readings.csv -csv expenses=q3.csv \
//	    -data-dir ./datasets -addr :8080 -max-workers 8
//
//	curl localhost:8080/tables
//	curl 'localhost:8080/schema?table=readings'
//	curl -X POST localhost:8080/query \
//	     -d '{"table":"readings","sql":"SELECT stddev(temp), hour FROM readings GROUP BY hour"}'
//	curl -X POST localhost:8080/explain \
//	     -d '{"table":"readings","sql":"SELECT stddev(temp), hour FROM readings GROUP BY hour",
//	          "outliers":["h012","h013"],"all_others_holdout":true}'
//
// Long searches can run as jobs instead of holding the connection:
//
//	curl -X POST localhost:8080/jobs -d '{...same body...}'   → {"job_id":...}
//	curl localhost:8080/jobs/job-1                            → status + best-so-far
//	curl -X DELETE localhost:8080/jobs/job-1                  → cancel
//
// Every explanation — sync or async — is admitted FIFO against the
// -max-workers budget; at most -queue-depth jobs wait (429 beyond that).
// Finished results are cached (bounded by -cache-entries): a repeated
// identical request answers instantly with "cached": true, concurrent
// identical requests run ONE search, and a repeat that changes only "c"
// reuses the cached partitioning (§8.3.3). GET /cache shows hit/miss
// counters; DELETE /cache empties the store.
// The -explain-timeout deadline bounds each search once it starts. On
// SIGINT/SIGTERM the server shuts down gracefully — it stops accepting
// connections, cancels queued and running jobs, and waits (up to
// -shutdown-timeout) for handlers to drain.
//
// Sharded searches can span processes: start workers with -worker (same
// tables loaded), point a coordinator at them with
// -peers http://w1:8081,http://w2:8081, and each shard of a sharded
// explain is searched on the fleet — with per-shard local fallback when a
// worker is down — before the coordinator combines candidates exactly as
// a single process would. See README "Remote shard workers".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/scorpiondb/scorpion/internal/cache"
	"github.com/scorpiondb/scorpion/internal/catalog"
	"github.com/scorpiondb/scorpion/internal/jobs"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/server"
)

// Connection timeouts. A client gets readHeaderTimeout to send its request
// headers and an idle keep-alive connection is closed after idleTimeout, so
// slow or abandoned connections cannot pin server goroutines. There is no
// read or write timeout on the body or response: a sync /explain may
// legitimately run for as long as -explain-timeout allows.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// csvFlags collects repeated -csv values of the form "name=path" or "path"
// (name derived from the file's base name).
type csvFlags []string

func (c *csvFlags) String() string { return strings.Join(*c, ", ") }
func (c *csvFlags) Set(v string) error {
	*c = append(*c, v)
	return nil
}

func main() {
	var csvs csvFlags
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		dataDir    = flag.String("data-dir", "", "load every *.csv in this directory as a table")
		timeout    = flag.Duration("explain-timeout", 2*time.Minute, "per-search explanation deadline (runs, not queue wait)")
		workers    = flag.Int("workers", 0, "default per-search worker grant (0 = serial, -1 = GOMAXPROCS)")
		maxWorkers = flag.Int("max-workers", 0, "global worker budget shared by all concurrent searches (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 64, "max waiting explain jobs before 429")
		maxUpload  = flag.Int64("max-upload", 0, "max POST /tables body bytes (0 = 256 MiB)")
		drainTime  = flag.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown drain deadline")
		cacheSize  = flag.Int("cache-entries", 0, fmt.Sprintf("result-cache LRU bound (0 = default %d, negative disables caching, coalescing and session reuse)", cache.DefaultCapacity))
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		pprofOn    = flag.Bool("pprof", false, "expose the runtime profiler under /debug/pprof/")
		workerMode = flag.Bool("worker", false, "serve POST /shards/search: execute remote shard searches for a coordinator (requires the same tables loaded)")
		peers      = flag.String("peers", "", "comma-separated worker base URLs; sharded explains dispatch per-shard searches to this fleet, falling back local per shard")
		peerTime   = flag.Duration("peer-timeout", 0, "per-shard dispatch attempt deadline (0 = 2m)")
	)
	flag.Var(&csvs, "csv", "dataset to serve, as name=path or path (repeatable)")
	flag.Parse()
	if len(csvs) == 0 && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "need at least one -csv name=path or a -data-dir")
		flag.Usage()
		os.Exit(2)
	}

	cat := catalog.New()
	for _, spec := range csvs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			name, path = "", spec
		}
		e, err := cat.LoadCSVFile(name, path)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded table %q: %d rows × %d columns (%s)", e.Name, e.Rows(), e.Columns(), path)
	}
	if *dataDir != "" {
		entries, err := cat.LoadDir(*dataDir)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range entries {
			log.Printf("loaded table %q: %d rows × %d columns (%s)", e.Name, e.Rows(), e.Columns(), e.Source)
		}
	}
	if cat.Len() == 0 {
		log.Fatalf("no tables loaded (is %s empty?)", *dataDir)
	}

	sched := jobs.New(jobs.Options{Budget: *maxWorkers, QueueCap: *queueDepth})
	srv := server.NewCatalog(cat, sched)
	srv.ExplainTimeout = *timeout
	srv.Workers = *workers
	srv.MaxUploadBytes = *maxUpload
	srv.ConfigureCache(*cacheSize)
	srv.SetLogger(obs.NewLogger(os.Stderr, *logLevel, *logFormat))
	if *pprofOn {
		srv.EnablePprof()
		log.Printf("pprof enabled at /debug/pprof/")
	}
	if *workerMode {
		srv.EnableWorker()
		log.Printf("worker mode: serving POST /shards/search (budget %d)", sched.Budget())
	}
	if *peers != "" {
		list := strings.Split(*peers, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
		if err := srv.SetPeers(list, *peerTime, nil); err != nil {
			log.Fatal(err)
		}
		log.Printf("dispatching shard searches to %d peer(s)", len(list))
	}

	// Request contexts derive from the signal context, so a shutdown also
	// cancels every in-flight handler; closing the server cancels queued
	// and running jobs through the scheduler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		BaseContext:       func(net.Listener) context.Context { return ctx },
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		fmt.Println("\nshutting down...")
		srv.Close()
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTime)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	fmt.Printf("serving %d table(s) on %s (worker budget %d, queue depth %d)\n",
		cat.Len(), *addr, sched.Budget(), *queueDepth)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// ListenAndServe returns as soon as Shutdown begins; wait for the drain
	// to finish so in-flight handlers aren't killed mid-response.
	<-drained
}
