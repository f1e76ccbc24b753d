// Command cgworker is one worker process of a distributed sweep: it
// speaks internal/dist's NDJSON protocol on stdin/stdout, runs each
// received cell on its own engine pool, and streams serialised
// outcomes back. cgsweep -procs N spawns N of these; there is no
// reason to run one by hand except to poke the protocol:
//
//	echo '{"type":"job","id":0,"job":{"Workload":"compress","Size":1,"Collector":"cg"}}' | cgworker
//
// Usage:
//
//	cgworker [-workers N] [-debug-addr ADDR]
//
// -workers sets the in-process pool (and the advertised capacity the
// coordinator's flow-control window uses); it is also what bounds the
// process's memory, one cell's handle tables per worker. -debug-addr
// serves net/http/pprof and a JSON progress snapshot (/progress) for
// the lifetime of the process — the way to watch or profile a worker
// mid-sweep without touching its stdout protocol stream.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
)

func main() {
	workers := flag.Int("workers", 1, "engine worker count for this process (0 = GOMAXPROCS)")
	debugAddr := flag.String("debug-addr", "",
		"serve pprof and a JSON progress snapshot on this address (e.g. localhost:6061; empty = off)")
	flag.Parse()

	eng := engine.New(*workers)

	var prog *obs.Progress
	if *debugAddr != "" {
		prog = &obs.Progress{}
		eng.SetProgress(prog) // tapes recorded / declined / replayed
		srv, err := obshttp.Serve(*debugAddr, func() obshttp.Snapshot {
			return obshttp.Snapshot{
				Provenance: obs.Capture(obs.Nanotime()),
				Progress:   progSnapshot(prog),
			}
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cgworker:", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "cgworker: debug endpoint on http://%s\n", srv.Addr())
	}

	if err := dist.Serve(os.Stdin, os.Stdout, eng, prog); err != nil {
		fmt.Fprintln(os.Stderr, "cgworker:", err)
		os.Exit(1)
	}
}

func progSnapshot(p *obs.Progress) *obs.ProgressSnapshot {
	s := p.Snapshot()
	return &s
}
