// Package dist is the multi-process transport under the cell
// pipeline's exec step: Coordinator implements results.Exec by shipping
// each cell to a worker process, and queues nothing itself — the
// results.Scheduler above it does. The wire is deliberately boring:
// newline-delimited JSON over a worker's stdin/stdout, so a worker is
// anything that can be spawned with two pipes — a local cgworker child
// today, an ssh-wrapped one on another machine tomorrow.
//
// Protocol (one JSON object per line):
//
//	worker -> coordinator   {"type":"hello","proto":2,"capacity":K}
//	coordinator -> worker   {"type":"job","id":I,"job":{...}}        (at most K unanswered)
//	worker -> coordinator   {"type":"result","id":I,"outcome":{...}}
//	coordinator closes the worker's stdin; worker drains and exits 0.
//
// Each result's outcome carries the provenance (host, CPU, load)
// captured when that cell was extracted.
//
// The coordinator keeps at most `capacity` jobs in flight per worker (a
// sliding window), which doubles as flow control: a worker always has
// pool capacity for what it has been sent, so neither side can wedge on
// a full pipe. Determinism does not depend on scheduling: results carry
// their request id back to the Exec call waiting on it, and the
// scheduler's session delivers outcomes in index order exactly as it
// does in-process, so a -procs 4 sweep renders byte-identical tables to
// a -workers 1 run.
package dist

import (
	"repro/internal/engine"
	"repro/internal/results"
)

// protoVersion guards against coordinator/worker skew: a hello with a
// different version aborts the worker connection before any job is
// lost to a silent schema mismatch.
// v2: outcomes grew obs/prov.
const protoVersion = 2

// request is a coordinator→worker message.
type request struct {
	Type string     `json:"type"` // "job"
	ID   int        `json:"id"`
	Job  engine.Job `json:"job"`
}

// response is a worker→coordinator message.
type response struct {
	Type     string           `json:"type"`            // "hello" | "result"
	Proto    int              `json:"proto,omitempty"` // hello
	Capacity int              `json:"capacity,omitempty"`
	ID       int              `json:"id"` // result
	Outcome  *results.Outcome `json:"outcome,omitempty"`
}
