package engine

import (
	"slices"
	"sync"

	"repro/internal/vm"
)

// shardPool recycles quiescent vm.Runtime shards between matrix cells,
// keyed by arena size: a demographics sweep runs hundreds of cells over
// identical 512 MiB arenas, and attaching a collector to a pooled shard
// replaces per-cell construction of its Go records (arena spans, class
// tables, frame records, intern maps) with a handful of slice
// truncations. Those records are all the pool keeps: every pooled shard
// is vacated (vm.Runtime.Vacate), which unmaps its collector's side
// tables and its owner table and gives its heap fresh mappings, so an
// idle shard holds address space, not the pages its last cell wrote.
// Only the extract-and-drop execution paths (ExecRelease, RunEach)
// recycle through the pool; package-level Exec, whose Result escapes to
// the caller, never does, so a retained Result.RT stays quiescent.
type shardPool struct {
	mu     sync.Mutex
	shards []pooledShard // oldest first
	max    int           // retention cap, at least 1
}

type pooledShard struct {
	arenaBytes int
	rt         *vm.Runtime
}

func newShardPool(max int) *shardPool {
	return &shardPool{max: max}
}

// get takes the newest pooled shard with exactly the requested arena
// size, or returns nil when the caller should build a fresh one. The
// pool holds at most a shard per worker, so the scan is short.
func (p *shardPool) get(arenaBytes int) *vm.Runtime {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.shards) - 1; i >= 0; i-- {
		if s := p.shards[i]; s.arenaBytes == arenaBytes {
			p.shards = slices.Delete(p.shards, i, i+1)
			return s.rt
		}
	}
	return nil
}

// put returns a vacated shard to the pool; at the retention cap the
// oldest pooled shard is evicted to make room (the cap bounds how many
// shards' address space and Go-heap records stay idle, at the worker
// count). The newest shard is the one kept: the next cell is likelier
// to want the arena size of the cell that just ran than that of the
// first sizes the engine ever saw, and a pool that refused newcomers had
// every later size build and discard a shard per cell. The pool alone
// owns an evicted shard, so its mappings are released here: left to the
// Go collector, they would stay reserved until a collection came, and
// cells that barely allocate make those rare.
func (p *shardPool) put(arenaBytes int, rt *vm.Runtime) {
	p.mu.Lock()
	var evicted *vm.Runtime
	if len(p.shards) >= p.max {
		evicted = p.shards[0].rt
		p.shards = slices.Delete(p.shards, 0, 1)
	}
	p.shards = append(p.shards, pooledShard{arenaBytes, rt})
	p.mu.Unlock()
	if evicted != nil {
		evicted.Release()
	}
}
