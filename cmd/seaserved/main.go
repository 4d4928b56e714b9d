// Command seaserved runs the SEA solver as a network service: a sharded
// multi-tenant serving layer (pkg/sea/serve) behind the HTTP/JSON transport
// (pkg/sea/serve/http), as a single runnable daemon.
//
//	seaserved -addr :8080 -shards 4 -inflight 2 -tenant-inflight 8
//
// Requests are routed by problem shape with consistent hashing across
// -shards independent solver servers, so each shard's arena pools stay hot
// for its share of the shape space. Per-tenant quotas (keyed on the
// X-Sea-Tenant header) and fair queueing sit above the per-shard admission
// control. See docs/API.md for the endpoint reference:
//
//	curl -X POST -d @problem.json localhost:8080/v1/solve
//	curl localhost:8080/v1/stats
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener stops,
// streamed trace responses drain, in-flight solves finish, and the shards
// close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sea/pkg/sea"
	"sea/pkg/sea/serve"
	seahttp "sea/pkg/sea/serve/http"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		shards         = flag.Int("shards", 1, "inner solver-server count (consistent-hash routed by problem shape)")
		solver         = flag.String("solver", "sea", "registry solver serving every request")
		inflight       = flag.Int("inflight", 0, "per-shard max concurrent solves (0 = GOMAXPROCS)")
		queue          = flag.Int("queue", 0, "per-shard waiting-queue bound (0 = 4x inflight)")
		shapes         = flag.Int("shapes", 0, "per-shard warm shape-pool cap (0 = 8)")
		arenas         = flag.Int("arenas", 0, "per-shape idle-arena cap (0 = inflight)")
		procs          = flag.Int("procs", 1, "workers per solve's parallel phases")
		reqTimeout     = flag.Duration("request-timeout", 0, "per-request solve budget (0 = none)")
		tenantInflight = flag.Int("tenant-inflight", 0, "per-tenant in-flight cap across shards (0 = no tenant quotas)")
		tenantQueue    = flag.Int("tenant-queue", 0, "per-tenant waiting-queue bound (0 = tenant-inflight)")
		maxBody        = flag.Int64("max-body", 0, "request-body byte cap (0 = 32 MiB)")
		maxJobs        = flag.Int("max-jobs", 0, "tracked asynchronous-job cap (0 = 1024)")
		eps            = flag.Float64("eps", 0, "convergence tolerance override (0 = solver default)")
		precond        = flag.String("precondition", "none", "default preconditioning stage: none, scale, or isp (requests override with ?precondition=)")
		drain          = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget")
	)
	flag.Parse()

	opts := sea.DefaultOptions()
	if *eps > 0 {
		opts.Epsilon = *eps
	}
	pc, err := sea.ParsePrecond(*precond)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seaserved: %v\n", err)
		os.Exit(1)
	}
	opts.Precondition = pc
	srv, err := serve.NewSharded(serve.ShardedConfig{
		Shards:            *shards,
		TenantMaxInFlight: *tenantInflight,
		TenantMaxQueue:    *tenantQueue,
		Server: serve.Config{
			Solver:         *solver,
			MaxInFlight:    *inflight,
			MaxQueue:       *queue,
			MaxShapes:      *shapes,
			ArenasPerShape: *arenas,
			Procs:          *procs,
			RequestTimeout: *reqTimeout,
			Options:        opts,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "seaserved: %v\n", err)
		os.Exit(1)
	}

	handler := seahttp.New(srv, seahttp.Config{MaxBodyBytes: *maxBody, MaxJobs: *maxJobs})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "seaserved: serving on %s (%d shard(s), solver %q)\n", *addr, srv.NumShards(), *solver)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "seaserved: %v, draining (budget %s)\n", sig, *drain)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "seaserved: listener: %v\n", err)
		handler.Close()
		srv.Close()
		os.Exit(1)
	}

	// Graceful teardown, outermost first: stop accepting and let in-flight
	// HTTP exchanges finish, then drain the handler's jobs and streams, then
	// close the shards (which waits out their in-flight solves).
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "seaserved: shutdown: %v\n", err)
	}
	handler.Close()
	srv.Close()
	fmt.Fprintln(os.Stderr, "seaserved: bye")
}
