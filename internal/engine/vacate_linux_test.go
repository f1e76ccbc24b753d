//go:build !race

package engine

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// settled is the resident set once the Go heap's free spans are back
// with the kernel, so that what it reads is live memory and the pages of
// mappings.
func settled(t *testing.T) int {
	runtime.GC()
	debug.FreeOSMemory()
	return residentBytes(t)
}

// TestVacatedShardHoldsNoPages: a pooled shard holds address space, not
// memory (DESIGN.md §5 "Pooled execution shards"). javac at size 100
// hands out 227 686 handles under CG and 469 886 under gen, and the
// heap, collector and owner tables behind them take 11 and 16 MiB of
// pages; once ExecRelease has vacated the shard into the pool, the
// resident set is back within 1 MiB of where it started.
func TestVacatedShardHoldsNoPages(t *testing.T) {
	const slack = 1 << 20
	for _, c := range []string{"cg", "gen"} {
		t.Run(c, func(t *testing.T) {
			eng := New(1)
			before := settled(t)
			var during, handles int
			eng.ExecRelease(Job{Workload: "javac", Size: 100, Collector: c}, func(r Result) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				handles = r.RT.Heap.NumHandles()
				during = residentBytes(t)
			})
			after := settled(t)
			if handles < 100_000 {
				t.Fatalf("the cell handed out %d handles, want at least 100 000", handles)
			}
			if during-before < 8*slack {
				t.Fatalf("the cell raised the resident set by only %d KiB: nothing to vacate", (during-before)>>10)
			}
			if after-before > slack {
				t.Errorf("after the shard was pooled the resident set is %d KiB above where it started, want at most %d",
					(after-before)>>10, slack>>10)
			}
			if len(eng.pool.shards) != 1 {
				t.Fatalf("the pool holds %d shards, want the vacated one", len(eng.pool.shards))
			}
			t.Logf("resident: %d KiB before, %+d KiB during the cell, %+d KiB once pooled (%d handles)",
				before>>10, (during-before)>>10, (after-before)>>10, handles)
		})
	}
}
