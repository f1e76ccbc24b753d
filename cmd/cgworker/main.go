// Command cgworker is one worker process of a distributed sweep: it
// speaks internal/dist's NDJSON protocol on stdin/stdout, runs each
// cell it receives on its own engine, and streams serialised outcomes
// back. cgsweep -procs N spawns N of these; there is no reason to run
// one by hand except to poke the protocol:
//
//	echo '{"type":"job","id":0,"job":{"Workload":"compress","Size":1,"Collector":"cg"}}' | cgworker
//
// Usage:
//
//	cgworker [-workers N]
//
// -workers sets the in-process pool (and the advertised capacity the
// coordinator's flow-control window uses); it is also what bounds the
// process's memory, one cell's handle tables per worker. Like cgsweep,
// a worker is a batch binary: it has no debug endpoint and links no
// net/http. A sweep is watched on /progress by running it on a cgserve.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dist"
	"repro/internal/engine"
)

func main() {
	workers := flag.Int("workers", 1, "engine worker count for this process (0 = GOMAXPROCS)")
	flag.Parse()

	if err := dist.Serve(os.Stdin, os.Stdout, engine.New(*workers)); err != nil {
		fmt.Fprintln(os.Stderr, "cgworker:", err)
		os.Exit(1)
	}
}
