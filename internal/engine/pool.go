package engine

import (
	"sync"

	"repro/internal/vm"
)

// shardPool recycles quiescent vm.Runtime shards between matrix cells,
// keyed by arena size: a demographics sweep runs hundreds of cells over
// identical 512 MiB arenas, and Reset-ing a pooled shard replaces
// per-cell heap/runtime construction (arena spans, handle table, ref
// slab, intern maps) with a handful of slice truncations. Only the
// extract-and-drop execution paths (ExecRelease, RunEach) recycle
// through the pool; package-level Exec, whose Result escapes to the
// caller, never does, so a retained Result.RT stays quiescent.
type shardPool struct {
	mu     sync.Mutex
	bySize map[int][]*vm.Runtime
	count  int // pooled shards across all sizes
	max    int // retention cap; excess shards are dropped to the GC
}

func newShardPool(max int) *shardPool {
	return &shardPool{bySize: make(map[int][]*vm.Runtime), max: max}
}

// get pops a pooled shard with exactly the requested arena size, or
// returns nil when the caller should build a fresh one.
func (p *shardPool) get(arenaBytes int) *vm.Runtime {
	p.mu.Lock()
	defer p.mu.Unlock()
	stack := p.bySize[arenaBytes]
	n := len(stack)
	if n == 0 {
		return nil
	}
	rt := stack[n-1]
	stack[n-1] = nil
	p.bySize[arenaBytes] = stack[:n-1]
	p.count--
	return rt
}

// put returns a quiescent shard to the pool; over the retention cap it
// is dropped instead (the cap bounds idle handle-table memory at the
// worker count — the same high-water the pool's cells reached anyway).
func (p *shardPool) put(arenaBytes int, rt *vm.Runtime) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.count >= p.max {
		return
	}
	p.bySize[arenaBytes] = append(p.bySize[arenaBytes], rt)
	p.count++
}
