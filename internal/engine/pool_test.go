package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
)

// pooled lists the pooled shards of one arena size, oldest first.
func (p *shardPool) pooled(arenaBytes int) []*vm.Runtime {
	var rts []*vm.Runtime
	for _, s := range p.shards {
		if s.arenaBytes == arenaBytes {
			rts = append(rts, s.rt)
		}
	}
	return rts
}

// TestPoolKeepsTheNewestShard: three arena sizes through a two-slot
// pool. The full pool makes room by dropping its oldest shard, so the
// size that ran last is the one whose next cell reuses a shard; a pool
// that refused the newcomer kept the first two sizes for good and built
// a shard for every later cell of any other size.
func TestPoolKeepsTheNewestShard(t *testing.T) {
	eng := New(2)
	sizes := []int{1 << 22, 1 << 23, 1 << 24}
	ran := make(map[int]*vm.Runtime)
	for _, size := range sizes {
		job := Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: size}
		eng.ExecRelease(job, func(r Result) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			ran[size] = r.RT
		})
	}
	if got := len(eng.pool.shards); got != 2 {
		t.Fatalf("pool holds %d shards, want its cap of 2", got)
	}
	if got := eng.pool.get(sizes[0]); got != nil {
		t.Fatal("the oldest shard survived a full pool taking a newer one")
	}
	if got := eng.pool.pooled(sizes[1]); len(got) != 1 || got[0] != ran[sizes[1]] {
		t.Fatal("the second-oldest shard was dropped while the pool had an older one")
	}
	last := Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: sizes[2]}
	eng.ExecRelease(last, func(r Result) {
		if r.RT != ran[sizes[2]] {
			t.Fatal("the last size to run did not reuse its pooled shard")
		}
	})
}

// TestExecReleaseRecyclesShards checks that back-to-back equal-arena
// cells actually reuse one runtime (the pool is doing something) and
// that a job of a different arena size never receives it.
func TestExecReleaseRecyclesShards(t *testing.T) {
	eng := New(1)
	job := Job{Workload: "javac", Size: 1, Collector: "cg", HeapBytes: 1 << 24}
	var first, second *core.CG
	eng.ExecRelease(job, func(r Result) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		first = r.Col.(*core.CG)
	})
	if got := len(eng.pool.shards); got != 1 {
		t.Fatalf("pool holds %d shards after one release, want 1", got)
	}
	var rt1 = eng.pool.pooled(1 << 24)[0]
	eng.ExecRelease(job, func(r Result) {
		if r.RT != rt1 {
			t.Fatal("equal-arena cell did not reuse the pooled shard")
		}
		second = r.Col.(*core.CG)
	})
	if first == second {
		t.Fatal("collector instances must be fresh per cell")
	}
	other := job
	other.HeapBytes = 1 << 23
	eng.ExecRelease(other, func(r Result) {
		if r.RT == rt1 {
			t.Fatal("different-arena cell received a mismatched pooled shard")
		}
	})
}

// TestEnginePooledDeterminism is the shard-reuse determinism gate: a
// cell computed on a recycled shard must produce byte-for-byte the
// statistics a fresh shard produces. The first RunEach pass fills the
// pool, the second runs entirely on recycled runtimes, which the pool
// vacated (their tables unmapped, the heap's mapped fresh) before the
// collector of the next cell attached, and the third runs larger cells on them: every
// handle-indexed table grows past the capacity the small cells used.
func TestEnginePooledDeterminism(t *testing.T) {
	jobs := []Job{
		{Workload: "jess", Size: 1, Collector: "cg", HeapBytes: 1 << 24},
		{Workload: "raytrace", Size: 1, Collector: "cg+recycle", HeapBytes: 1 << 22},
		{Workload: "jack", Size: 1, Collector: "cg+reset", HeapBytes: 1 << 22, GCEvery: 1200},
		{Workload: "mtrt", Size: 1, Collector: "cg", HeapBytes: 1 << 24},
	}
	larger := make([]Job, len(jobs))
	for i, j := range jobs {
		j.Size = 10 // same arenas, so the same pooled shards
		larger[i] = j
	}
	collect := func(eng *Engine, jobs []Job) []core.Stats {
		out := make([]core.Stats, len(jobs))
		errs := make([]error, len(jobs))
		eng.RunEach(jobs, func(i int, r Result) {
			if r.Err != nil {
				errs[i] = r.Err
				return
			}
			out[i] = r.Col.(*core.CG).Stats()
		})
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	eng := New(2)
	fresh := collect(eng, jobs)           // pool empty: fresh shards
	recycled := collect(eng, jobs)        // pool warm: recycled shards
	again := collect(New(2), jobs)        // control: a fresh engine
	grown := collect(eng, larger)         // recycled shards, tables outgrown
	grownFresh := collect(New(2), larger) // control: fresh shards
	for i := range jobs {
		if fresh[i] != recycled[i] {
			t.Errorf("job %d: pooled stats %+v != fresh stats %+v", i, recycled[i], fresh[i])
		}
		if fresh[i] != again[i] {
			t.Errorf("job %d: fresh-engine stats differ between engines", i)
		}
		if grown[i] != grownFresh[i] {
			t.Errorf("job %d at size 10: stats on an outgrown pooled shard %+v != fresh stats %+v", i, grown[i], grownFresh[i])
		}
		if grown[i].Created <= 2*fresh[i].Created {
			t.Errorf("job %d: size 10 created %d objects, size 1 %d: not enough to outgrow the pooled tables", i, grown[i].Created, fresh[i].Created)
		}
	}
}
