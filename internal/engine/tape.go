package engine

import (
	"embed"
	"fmt"
	"sync"

	"repro/internal/tape"
)

// tapeKey identifies a recorded event stream. A tape is a pure
// function of (workload, size): the driver's control flow depends only
// on its deterministic RNG and on graph reads whose Nil-ness every
// collector preserves, so the collector / heap-budget / gc-every /
// repeat axes of the matrix all replay one recording.
type tapeKey struct {
	workload string
	size     int
}

// maxTapedOps is the one admission rule, applied when the seeds are
// made: a row of the default grid ships a tape exactly when its run is
// shorter than this many ops. Below it a tape is KB-sized; every
// measured row above it issues an op each 27–45 ns — the runtime's own
// cost, with no driver work between ops for a replay to save — and its
// tape would be MBs (the table is in DESIGN.md §12).
const maxTapedOps = 4096

// seedFiles holds the shipped tapes, tapes/<workload>-<size>.cgt, one
// per admitted row. TestSeedTapesAreCurrent records every grid row
// afresh and requires these bytes; run it with -update to rewrite them.
//
//go:embed tapes
var seedFiles embed.FS

// seeds holds the shipped tapes an engine has decoded so far.
type seeds struct {
	mu    sync.Mutex
	tapes map[tapeKey]*tape.Tape
}

// lookup returns the shipped tape of row k, or nil when the row ships
// none. Each file is decoded on its row's first lookup, so an engine
// that never looks one up never decodes one.
func (s *seeds) lookup(k tapeKey) (*tape.Tape, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tapes[k]; ok {
		return t, nil
	}
	b, err := seedFiles.ReadFile(fmt.Sprintf("tapes/%s-%d.cgt", k.workload, k.size))
	if err != nil {
		return nil, nil // no file: the row drives
	}
	t, err := tape.Decode(b)
	if err != nil {
		return nil, fmt.Errorf("engine: seeded tape of %s/%d: %w", k.workload, k.size, err)
	}
	s.tapes[k] = t
	return t, nil
}
