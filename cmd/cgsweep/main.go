// Command cgsweep runs the demographics figures as a resumable,
// optionally multi-process sweep. Rows stream to stdout in figure
// order the moment their cells complete, and the rendered bytes are
// identical for every backend configuration: -procs 4 against worker
// processes, -workers 8 in-process, or a resume over a half-filled
// store all print the same tables. The sweep is planned: figures share
// cells (the 12 figures' 104 cells are 40 distinct ones), so the
// requested figures are folded into their distinct cells and those run
// once each, as one batch.
//
// Usage:
//
//	cgsweep                               # all demographic figures, in-process
//	cgsweep -figs 4.1,4.5,4.11            # a subset
//	cgsweep -procs 4                      # fan cells out to 4 cgworker processes
//	cgsweep -store cells/                 # persist cells; a rerun skips completed ones
//	cgsweep -debug-addr localhost:6060    # live pprof + JSON progress while it runs
//	cgsweep -server http://host:8080      # run the sweep on a cgserve instead
//
// With -server the sweep is not run locally at all: the spec is POSTed
// to a cgserve and the streamed rows are written to stdout as they
// arrive. The output is byte-identical to a local run of the same
// figures — the server renders with the same code path — but cells are
// served from the server's shared cache, deduplicated against other
// clients' concurrent sweeps, and admitted under the server's
// -max-inflight. -client names this client in the server's fairness
// lanes.
//
// -debug-addr serves net/http/pprof and a JSON snapshot (/progress) of
// the sweep's live state — cells stored/computed/in-flight, queue
// depth, per-worker utilization — without touching the deterministic
// stdout stream. Each completed figure also prints a stderr line — its
// cell count, how many of those cells this run computed on its account,
// and the time since the previous figure flushed — and the run closes
// with a summary: how many figure cells were delivered without being
// computed (shared with another figure, or read from the store) and how
// many were computed.
//
// With -store, a killed sweep (power cut, OOM kill, ^C) is restarted
// with the same command line and completes from where it died: cells
// already on disk are served from the store (the stderr summary counts
// them) and only the missing ones recompute.
//
// With -procs N the coordinator spawns N cgworker children — found via
// -worker, next to the cgsweep binary, or on $PATH — each hosting its
// own engine pool of -workers shards. Cells in flight on a worker that
// dies are retried on the survivors.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/results"
	"repro/internal/serve"
)

// localOnly names the flags that configure a local run; -server runs
// the sweep on another machine's engine and store and rejects each.
var localOnly = map[string]bool{
	"procs": true, "workers": true, "store": true, "worker": true,
	"debug-addr": true,
}

// rejectLocalFlags fails on the first flag the command line set that
// -server cannot honour.
func rejectLocalFlags(fs *flag.FlagSet) (err error) {
	fs.Visit(func(f *flag.Flag) {
		if err == nil && localOnly[f.Name] {
			err = fmt.Errorf("-server runs the sweep remotely; -%s configures a local run and cannot be combined with -server", f.Name)
		}
	})
	return err
}

func main() {
	figsFlag := flag.String("figs", "", "comma-separated figure ids (default: all demographic figures)")
	procs := flag.Int("procs", 0, "worker processes to fan cells out to (0 = run in-process)")
	workers := flag.Int("workers", 0, "engine workers per process (0 = GOMAXPROCS; with -procs, per child)")
	storeDir := flag.String("store", "", "results store directory; completed cells are persisted and resumed")
	workerCmd := flag.String("worker", "", "cgworker binary for -procs (default: beside cgsweep, then $PATH)")
	debugAddr := flag.String("debug-addr", "",
		"serve pprof and a JSON progress snapshot on this address (e.g. localhost:6060; empty = off)")
	server := flag.String("server", "",
		"run the sweep on a cgserve at this URL (e.g. http://localhost:8080) instead of locally; output is byte-identical")
	client := flag.String("client", "",
		"client name reported to -server for its fairness lanes (default: host:pid)")
	flag.Parse()

	var ids []string
	if *figsFlag != "" {
		ids = strings.Split(*figsFlag, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	figs, err := experiments.DemographicFigs(ids...)
	if err != nil {
		fatal(err)
	}

	if *server != "" {
		// Server mode: the sweep runs remotely; a flag that configures a
		// local run is a contradiction, not a no-op.
		if err := rejectLocalFlags(flag.CommandLine); err != nil {
			fatal(err)
		}
		name := *client
		if name == "" {
			host, _ := os.Hostname()
			name = fmt.Sprintf("%s:%d", host, os.Getpid())
		}
		spec := serve.Spec{Client: name, Figs: ids}
		start := time.Now()
		stats, err := (&serve.Client{Base: *server}).Sweep(spec, os.Stdout)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cgsweep: %d cells from %s in %v (%d computed, %d from store, %d deduped in flight)\n",
			stats.Cells, *server, time.Since(start).Round(time.Millisecond), stats.Computed, stats.Stored, stats.Deduped)
		return
	}

	// The progress counters exist regardless of -debug-addr: they cost
	// nothing on hot paths (every update is at a cell boundary).
	prog := &obs.Progress{}

	var backend results.Backend
	if *procs > 0 {
		bin, err := workerBinary(*workerCmd)
		if err != nil {
			fatal(err)
		}
		perChild := *workers
		if perChild <= 0 {
			// Split the host across children rather than oversubscribing
			// it procs-fold.
			perChild = (engine.New(0).Workers() + *procs - 1) / *procs
		}
		argv := []string{bin, "-workers", strconv.Itoa(perChild)}
		backend = &dist.Coordinator{Spawn: dist.Command(argv, os.Stderr), Procs: *procs, Obs: prog}
	} else {
		backend = results.Local{Eng: engine.New(*workers).SetProgress(prog), Obs: prog}
	}

	if *storeDir != "" {
		store, err := results.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		backend = &results.Resuming{Store: store, Next: backend, Obs: prog}
	}
	backend = results.Observed{Next: backend, Obs: prog}

	if *debugAddr != "" {
		srv, err := obshttp.Serve(*debugAddr, func() obshttp.Snapshot {
			ps := prog.Snapshot()
			return obshttp.Snapshot{Provenance: obs.Capture(obs.Nanotime()), Progress: &ps}
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "cgsweep: debug endpoint on http://%s\n", srv.Addr())
	}

	// One line per figure as it flushes, and a closing summary of the
	// whole sweep: how many figure cells were asked for, and how many of
	// them had to be computed. The rest were delivered without running
	// anything — a cell several figures share runs once, and a stored
	// cell not at all.
	lastFlush := time.Now()
	var cells, computed int
	report := func(st experiments.FigStats) {
		now := time.Now()
		fmt.Fprintf(os.Stderr, "cgsweep: fig %s: %d cells, %d computed, in %v\n",
			st.Fig.ID, len(st.Fig.Jobs), st.Computed, now.Sub(lastFlush).Round(time.Millisecond))
		lastFlush = now
		cells += len(st.Fig.Jobs)
		computed += st.Computed
	}
	if err := experiments.SweepProgress(backend, figs, os.Stdout, report); err != nil {
		fatal(err)
	}
	how := "shared between figures"
	if *storeDir != "" {
		how = "from store"
	}
	fmt.Fprintf(os.Stderr, "cgsweep: %d cells %s, %d computed\n", cells-computed, how, computed)
}

// workerBinary resolves the cgworker executable: an explicit -worker
// path wins, then a cgworker beside our own binary (the `go build -o
// bin/ ./cmd/...` layout), then $PATH.
func workerBinary(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "cgworker")
		if info, err := os.Stat(sibling); err == nil && !info.IsDir() {
			return sibling, nil
		}
	}
	if bin, err := exec.LookPath("cgworker"); err == nil {
		return bin, nil
	}
	return "", fmt.Errorf("cgsweep: cgworker binary not found beside cgsweep or on $PATH; build it (go build ./cmd/cgworker) or pass -worker")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgsweep:", err)
	os.Exit(1)
}
