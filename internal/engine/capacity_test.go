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
// memory to build, and an engine holding eight demographics cells in
// consume at once — 4 GiB of arena capacity — has a few MiB in use.
// What a shard does cost is its handle tables, which follow the cell's
// object count, not its arena.
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
	// Every cell waits in consume for all the others, so all eight
	// shards are held at once; cell 0 measures the Go heap once every
	// cell has arrived, and then lets them all go.
	arenas := make([]int, len(jobs))
	var arrived, measured sync.WaitGroup
	arrived.Add(len(jobs))
	measured.Add(1)
	var held int64
	New(len(jobs)).RunEach(jobs, func(i int, r Result) {
		if r.Err != nil {
			t.Errorf("job %d: %v", i, r.Err)
		} else {
			arenas[i] = r.RT.Heap.Arena().Size()
		}
		arrived.Done()
		if i == 0 {
			arrived.Wait()
			for _, n := range arenas {
				held += int64(n)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			measured.Done()
		}
		measured.Wait()
	})
	if held < 4<<30 {
		t.Fatalf("the cells held %d MiB of arena capacity at once, want 4 GiB", held>>20)
	}
	if after.HeapInuse >= 64<<20 {
		t.Errorf("%d MiB of arena capacity held, %d MiB of Go heap in use: want under 64", held>>20, after.HeapInuse>>20)
	}
	t.Logf("a shard takes %d KiB to build; %d MiB of arena capacity is held in %d KiB of Go heap",
		built>>10, held>>20, after.HeapInuse>>10)
}
