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
//
// Each completed figure prints a stderr line — its cell count, how
// many of those cells this run computed on its account, and the time
// since the previous figure flushed — and the run closes with a
// summary: how many figure cells were delivered without being computed
// (shared with another figure, or read from the store) and how many
// were computed.
//
// cgsweep is the batch sweep and links no network code. Running the
// same sweep on a shared server, and watching a sweep's live progress
// and profiles, are cgserve's: `cgserve sweep URL` prints what cgsweep
// prints for the same figures, and the server serves /progress and
// net/http/pprof.
//
// With -store, a killed sweep (power cut, OOM kill, ^C) is restarted
// with the same command line and completes from where it died: cells
// already on disk are served from the store (the stderr summary counts
// them) and only the missing ones recompute.
//
// With -procs N the coordinator spawns N cgworker children — found via
// -worker, next to the cgsweep binary, or on $PATH — each running the
// cells it is sent as one session of its own cell pipeline, on -workers
// shards. They start when the first cell misses the store, so a rerun
// over a full store forks nothing. Cells in flight on a worker that
// dies are retried on the survivors.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/results"
)

func main() {
	figsFlag := flag.String("figs", "", "comma-separated figure ids (default: all demographic figures)")
	procs := flag.Int("procs", 0, "worker processes to fan cells out to (0 = run in-process)")
	workers := flag.Int("workers", 0, "engine workers per process (0 = GOMAXPROCS; with -procs, per child)")
	storeDir := flag.String("store", "", "results store directory; completed cells are persisted and resumed")
	workerCmd := flag.String("worker", "", "cgworker binary for -procs (default: beside cgsweep, then $PATH)")
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

	if err := sweep(figs, *procs, *workers, *storeDir, *workerCmd); err != nil {
		fatal(err)
	}
}

// sweep runs figs locally as one session of the cell pipeline: over an
// in-process engine, or over procs cgworker children when procs > 0,
// with a store when storeDir is set. It kills and reaps the children
// before returning.
func sweep(figs []experiments.SweepFig, procs, workers int, storeDir, workerCmd string) error {
	var exec results.Exec
	var executors int
	if procs > 0 {
		bin, err := workerBinary(workerCmd)
		if err != nil {
			return err
		}
		perChild := workers
		if perChild <= 0 {
			// Split the host across children rather than oversubscribing
			// it procs-fold.
			perChild = (runtime.GOMAXPROCS(0) + procs - 1) / procs
		}
		argv := []string{bin, "-workers", strconv.Itoa(perChild)}
		coord := &dist.Coordinator{Spawn: dist.Command(argv, os.Stderr), Procs: procs}
		defer coord.Close()
		exec, executors = coord, procs*perChild
	} else {
		eng := engine.New(workers)
		exec, executors = results.Local{Eng: eng}, eng.Workers()
	}

	var store *results.Store
	if storeDir != "" {
		var err error
		if store, err = results.Open(storeDir); err != nil {
			return err
		}
	}

	sched := results.NewScheduler(exec, store, nil, executors)
	sess, err := sched.OpenSession("")
	if err != nil {
		return err
	}
	defer sched.Wait()
	defer sess.Close()

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
	if err := experiments.SweepProgress(sess, figs, os.Stdout, report); err != nil {
		return err
	}
	how := "shared between figures"
	if store != nil {
		how = "from store"
	}
	fmt.Fprintf(os.Stderr, "cgsweep: %d cells %s, %d computed\n", cells-computed, how, computed)
	return nil
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
