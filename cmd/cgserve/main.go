// Command cgserve is the long-running sweep server and its client:
// cgsweep promoted from a batch CLI to a service. Clients POST sweep
// specs and rows stream back as NDJSON while cells complete —
// byte-identical to a local batch run — with one shared engine and one
// shared content-addressed cell store behind every client:
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
//	cgserve sweep -figs 4.1,4.5 http://localhost:8080      # a client
//	curl -s localhost:8080/progress                        # live counters + fairness lanes
//	curl -s localhost:8080/healthz                         # liveness + drain state
//
// `cgserve sweep [-client NAME] [-figs IDS] URL` runs a sweep on the
// server at URL and writes the streamed rows to stdout as they arrive:
// the same bytes as `cgsweep -figs IDS`, since the server renders with
// the same code path. -client names the client in the server's
// fairness lanes (default host:pid). Its closing stderr line keeps the
// "cgsweep:" prefix of the batch sweep's summary, so a script that
// reads it needs no change.
//
// The listener also serves /progress (live JSON counters with
// per-client lanes), /healthz and net/http/pprof: a sweep is watched
// and profiled on the server that runs it. On SIGTERM (or ^C)
// the server drains gracefully: admission stops (healthz turns 503,
// new sweeps are refused), accepted streams run to completion, then
// the process exits 0 — no client stream is ever truncated by a
// deploy.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/serve"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		os.Exit(sweep(os.Args[2:], os.Stdout, os.Stderr))
	}
	addr := flag.String("addr", "localhost:8080", "listen address for the sweep API, /progress, /healthz and pprof")
	workers := flag.Int("workers", 0, "engine workers, one concurrent cell each (0 = GOMAXPROCS)")
	storeDir := flag.String("store", "", "shared cell store directory (empty = a temporary directory, discarded on exit)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: cgserve [flags]\n       cgserve sweep [-client NAME] [-figs IDS] URL\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	// Listen first, so a bad -addr leaves no temporary store behind.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	dir, tempStore := *storeDir, false
	if dir == "" {
		if dir, err = os.MkdirTemp("", "cgserve-cells-*"); err != nil {
			fatal(err)
		}
		tempStore = true
	}
	store, err := results.Open(dir)
	if err != nil {
		fatal(err)
	}

	srv := serve.New(serve.Config{Workers: *workers, Store: store})
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		// ErrServerClosed after Close; the listener is gone either way.
		_ = hs.Serve(ln)
	}()
	fmt.Fprintf(os.Stderr, "cgserve: serving on http://%s (store %s)\n", ln.Addr(), dir)

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
	hs.Close()
	if tempStore {
		os.RemoveAll(dir)
	}
	fmt.Fprintln(os.Stderr, "cgserve: drained, exiting")
}

// parseSweep reads `cgserve sweep`'s own flag set and its one
// argument, the server URL, and reports a bad command line on stderr.
// The server's flags (-addr, -store, -workers) are not in the set: a
// client that sets one is refused by name.
func parseSweep(args []string, stderr io.Writer) (url string, spec serve.Spec, err error) {
	fs := flag.NewFlagSet("cgserve sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	client := fs.String("client", "", "client name for the server's fairness lanes (default: host:pid)")
	figs := fs.String("figs", "", "comma-separated figure ids (default: all demographic figures)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: cgserve sweep [-client NAME] [-figs IDS] URL")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return "", spec, err // the flag package has reported it
	}
	if *figs != "" {
		spec.Figs = strings.Split(*figs, ",")
		for i := range spec.Figs {
			spec.Figs[i] = strings.TrimSpace(spec.Figs[i])
		}
	}
	if fs.NArg() != 1 {
		err = fmt.Errorf("want one server URL after the flags, got %d arguments", fs.NArg())
	} else {
		_, err = experiments.DemographicFigs(spec.Figs...)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cgserve sweep:", err)
		return "", spec, err
	}
	if spec.Client = *client; spec.Client == "" {
		host, _ := os.Hostname()
		spec.Client = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	return fs.Arg(0), spec, nil
}

// sweep is `cgserve sweep`: it runs one sweep on a cgserve and returns
// the exit code, 2 for a bad command line.
func sweep(args []string, stdout, stderr io.Writer) int {
	url, spec, err := parseSweep(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	start := time.Now()
	stats, err := (&serve.Client{Base: url}).Sweep(spec, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "cgserve sweep:", err)
		return 1
	}
	fmt.Fprintf(stderr, "cgsweep: %d cells from %s in %v (%d computed, %d from store, %d deduped in flight)\n",
		stats.Cells, url, time.Since(start).Round(time.Millisecond), stats.Computed, stats.Stored, stats.Deduped)
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgserve:", err)
	os.Exit(1)
}
