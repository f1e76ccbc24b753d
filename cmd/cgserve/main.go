// Command cgserve is the long-running sweep server: cgsweep promoted
// from a batch CLI to a service. Clients POST sweep specs and rows
// stream back as NDJSON while cells complete — byte-identical to a
// local batch run — with one shared engine and one shared
// content-addressed cell store behind every client:
//
//   - cells any client ever computed are disk hits for all later
//     clients (and are served directly at GET /cell/{key}, where the
//     cell key doubles as an immutable ETag);
//   - cells requested concurrently by several clients compute exactly
//     once (in-flight dedup), with every requesting stream receiving
//     the outcome;
//   - admission is bounded by -workers, one cell executor per engine
//     worker, and a per-client round-robin scheduler keeps one huge
//     sweep from starving small ones.
//
// Usage:
//
//	cgserve -addr localhost:8080 -store cells/
//	cgsweep -server http://localhost:8080 -figs 4.1,4.5   # a client
//	curl -s localhost:8080/progress                        # live counters + fairness lanes
//	curl -s localhost:8080/healthz                         # liveness + drain state
//
// The listener also serves /progress (live JSON counters with
// per-client lanes), /healthz and net/http/pprof. On SIGTERM (or ^C)
// the server drains gracefully: admission stops (healthz turns 503,
// new sweeps are refused), accepted streams run to completion, then
// the process exits 0 — no client stream is ever truncated by a
// deploy.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/results"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address for the sweep API, /progress, /healthz and pprof")
	workers := flag.Int("workers", 0, "engine workers, one concurrent cell each (0 = GOMAXPROCS)")
	storeDir := flag.String("store", "", "shared cell store directory (empty = a temporary directory, discarded on exit)")
	flag.Parse()

	prog := &obs.Progress{}
	eng := engine.New(*workers).SetProgress(prog)

	dir, tempStore := *storeDir, false
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "cgserve-cells-*"); err != nil {
			fatal(err)
		}
		tempStore = true
	}
	store, err := results.Open(dir)
	if err != nil {
		fatal(err)
	}

	srv := serve.New(serve.Config{Engine: eng, Store: store, Progress: prog})
	obsSrv, err := obshttp.Serve(*addr, prog)
	if err != nil {
		fatal(err)
	}
	srv.Register(obsSrv.Mux())
	obsSrv.SetHealth(srv.Health)
	fmt.Fprintf(os.Stderr, "cgserve: serving on http://%s (store %s)\n", obsSrv.Addr(), dir)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	fmt.Fprintln(os.Stderr, "cgserve: draining (in-flight sweeps run to completion; repeat to force exit)")
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "cgserve: forced exit")
		os.Exit(1)
	}()
	srv.Drain() // healthz flips to 503; new sweeps are refused
	srv.Wait()  // accepted streams finish and flush
	obsSrv.Close()
	if tempStore {
		os.RemoveAll(dir)
	}
	fmt.Fprintln(os.Stderr, "cgserve: drained, exiting")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgserve:", err)
	os.Exit(1)
}
