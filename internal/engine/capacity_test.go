package engine

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
)

// TestArenaCapacityIsNotMemory pins the fact that makes a byte cap on
// arena capacity a cap on the wrong quantity (DESIGN.md §13): the arena
// is virtual, so a 512 MiB demographics shard costs under 1 MiB of Go
// memory to build, and an engine whose pool holds eight of them — 4 GiB
// of arena capacity — has a few MiB in use. What a shard does cost is
// its handle tables, which follow the cell's object count, not its
// arena.
func TestArenaCapacityIsNotMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt := vm.New(heap.New(DemographicsArena), vm.None())
	runtime.ReadMemStats(&after)
	built := after.TotalAlloc - before.TotalAlloc
	if built >= 1<<20 {
		t.Errorf("building a %d MiB shard allocated %d bytes, want under 1 MiB", DemographicsArena>>20, built)
	}
	runtime.KeepAlive(rt)

	var jobs []Job
	for _, name := range []string{"compress", "jess", "raytrace", "db", "javac", "mpegaudio", "mtrt", "jack"} {
		jobs = append(jobs, Job{Workload: name, Size: 1, Collector: "cg"})
	}
	// Every cell waits in consume for all the others, so each runs on a
	// shard of its own and all of them end up pooled.
	eng := New(len(jobs))
	var inFlight sync.WaitGroup
	inFlight.Add(len(jobs))
	eng.RunEach(jobs, func(i int, r Result) {
		if r.Err != nil {
			t.Errorf("job %d: %v", i, r.Err)
		}
		inFlight.Done()
		inFlight.Wait()
	})
	resident := len(eng.pool.pooled(DemographicsArena)) * DemographicsArena
	if resident < 1<<30 {
		t.Fatalf("the pool holds %d MiB of arena capacity, want at least 1 GiB", resident>>20)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapInuse >= 64<<20 {
		t.Errorf("%d MiB of arena capacity resident, %d MiB of Go heap in use: want under 64", resident>>20, after.HeapInuse>>20)
	}
	t.Logf("a shard takes %d KiB to build; %d MiB of arena capacity is pooled in %d KiB of Go heap",
		built>>10, resident>>20, after.HeapInuse>>10)
	runtime.KeepAlive(eng)
}
