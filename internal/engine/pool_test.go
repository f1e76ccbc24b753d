package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

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
	if got := eng.pool.count; got != 1 {
		t.Fatalf("pool holds %d shards after one release, want 1", got)
	}
	var rt1 = eng.pool.bySize[1<<24][0]
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

// TestMemoryCapRetainsPooling pins the cap/pool interaction: pooled
// idle shards keep their reservation against the engine's reserve, so
// pooling stays on under -max-heap-bytes and ReservedBytes accounts for
// running and pooled arenas alike. When admission stalls, the reserve
// evicts pooled shards — largest arena first — instead of blocking.
func TestMemoryCapRetainsPooling(t *testing.T) {
	// Tape cache off: this test pins the reserve to exact *arena* bytes,
	// and cached tapes would add their own (legitimate) charges.
	eng := New(2).SetMaxHeapBytes(3 << 24).SetTapeCache(false) // 48 MiB
	run := func(bytes int) {
		t.Helper()
		job := Job{Workload: "javac", Size: 1, Collector: "cg", HeapBytes: bytes}
		eng.ExecRelease(job, func(r Result) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		})
	}
	run(1 << 24) // 16 MiB, pooled with its reservation
	if got, want := eng.ReservedBytes(), int64(1<<24); got != want || eng.pool.count != 1 {
		t.Fatalf("after first cell: reserved %d (want %d), pooled %d (want 1)", got, want, eng.pool.count)
	}
	run(1 << 25) // 32 MiB, pooled too: reserve now exactly at the cap
	if got, want := eng.ReservedBytes(), int64(3<<24); got != want || eng.pool.count != 2 {
		t.Fatalf("after second cell: reserved %d (want %d), pooled %d (want 2)", got, want, eng.pool.count)
	}
	// 8 MiB doesn't fit beside 48 MiB of pooled reservations; admission
	// must evict the largest pooled shard (32 MiB) rather than block.
	run(1 << 23)
	if got, want := eng.ReservedBytes(), int64(1<<24+1<<23); got != want {
		t.Fatalf("after eviction: reserved %d, want %d (16 MiB + 8 MiB pooled)", got, want)
	}
	if eng.pool.count != 2 || len(eng.pool.bySize[1<<25]) != 0 {
		t.Fatalf("eviction kept the wrong shard: count %d, 32 MiB stack %d",
			eng.pool.count, len(eng.pool.bySize[1<<25]))
	}
	// Dropping the cap drains the pool along with its reservations.
	eng.SetMaxHeapBytes(0)
	if eng.pool.count != 0 || eng.ReservedBytes() != 0 {
		t.Fatalf("uncapping left %d pooled shards, %d reserved bytes", eng.pool.count, eng.ReservedBytes())
	}
}

// TestMemoryCapAdmissionExact is the admission-exactness property: on a
// concurrent sweep of mixed arena sizes (each below the cap), the
// reserve never over-admits — at every sampled instant, running plus
// pooled arena bytes stay within -max-heap-bytes — and admitted jobs
// never fail for lack of reserve. Afterwards only pooled reservations
// remain.
func TestMemoryCapAdmissionExact(t *testing.T) {
	const cap = 5 << 22 // 20 MiB: forces both blocking and eviction
	// Tape cache off, as above: the quiescent-reserve == pooled-arena
	// equality below has no tape-byte term.
	eng := New(4).SetMaxHeapBytes(cap).SetTapeCache(false)
	sizes := []int{1 << 21, 1 << 22, 3 << 21, 1 << 23} // 2, 4, 6, 8 MiB
	jobs := make([]Job, 24)
	for i := range jobs {
		jobs[i] = Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: sizes[i%len(sizes)]}
	}
	var over atomic.Int64
	eng.RunEach(jobs, func(i int, r Result) {
		if r.Err != nil {
			t.Errorf("job %d (%d bytes) failed under the cap: %v", i, jobs[i].HeapBytes, r.Err)
		}
		if got := eng.ReservedBytes(); got > cap {
			over.Store(got)
		}
	})
	if got := over.Load(); got != 0 {
		t.Fatalf("reserve over-admitted: observed %d reserved bytes under a %d cap", got, int64(cap))
	}
	if got := eng.ReservedBytes(); got > cap {
		t.Fatalf("quiescent reserve holds %d bytes under a %d cap", got, int64(cap))
	}
	var pooled int64
	for size, stack := range eng.pool.bySize {
		pooled += int64(size) * int64(len(stack))
	}
	if got := eng.ReservedBytes(); got != pooled {
		t.Fatalf("quiescent reserve %d != pooled arena bytes %d", got, pooled)
	}
}

// TestAdmissionLiveAtEveryCoreCount re-runs the -max-heap-bytes
// admission tests at GOMAXPROCS 1, 2 and 4 under a deadline. Admission
// once deadlocked on any multi-core host — a shard parked in the pool
// keeping its reservation, and a worker already waiting in the reserve
// was never told to evict it — while passing at one CPU, so liveness is
// asserted per core count, and a hang fails in a minute with every
// goroutine's stack instead of taking the package timeout with it.
func TestAdmissionLiveAtEveryCoreCount(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			defer time.AfterFunc(time.Minute, func() {
				debug.SetTraceback("all")
				panic(fmt.Sprintf("admission at GOMAXPROCS=%d still blocked after a minute", procs))
			}).Stop()
			t.Run("AdmissionExact", TestMemoryCapAdmissionExact)
			t.Run("RetainsPooling", TestMemoryCapRetainsPooling)
			t.Run("ReserveThrottles", TestReserveThrottlesAdmission)
			t.Run("OversizedAlone", TestReserveAdmitsOversizedJobAlone)
			t.Run("RunUnderCap", TestEngineRunUnderMemoryCap)
		})
	}
}

// TestEnginePooledDeterminism is the Reset-reuse determinism gate: a
// cell computed on a recycled shard must produce byte-for-byte the
// statistics a fresh shard produces. The first RunEach pass fills the
// pool, the second runs entirely on recycled runtimes, and the third
// runs larger cells on them: every handle-indexed table grows past the
// capacity, and the stale contents, the pool kept from the small cells.
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
