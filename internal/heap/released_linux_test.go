//go:build !race

package heap_test

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/heap"
)

// residentBytes reads this process's resident set size once the Go
// heap's free spans are back with the kernel, so that what it reads is
// live memory and the pages of mappings. The collection it forces runs
// the cleanups of whatever shard was dropped unreleased.
func residentBytes(t *testing.T) int {
	t.Helper()
	runtime.GC()
	debug.FreeOSMemory()
	return statm(t)
}

// statm reads this process's resident set size as it stands, the Go
// heap's garbage and free spans included, without collecting.
func statm(t *testing.T) int {
	t.Helper()
	statm, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Skipf("no resident set size to read: %v", err)
	}
	pages, err := strconv.Atoi(strings.Fields(string(statm))[1])
	if err != nil {
		t.Fatal(err)
	}
	return pages * os.Getpagesize()
}

// TestReleasedShardHoldsNoPages: a cell's shard is released as soon as
// its Result has been consumed (DESIGN.md §5 "One shard per cell").
// javac at size 100 hands out 227 686 handles under CG and 469 886
// under gen, and the heap, collector and owner tables behind them take
// some 9 and 11 MiB of pages; once ExecRelease returns, the mapping count
// is back where it began — with the Go collector off, so no cleanup did
// it — and the resident set is back within 1 MiB of where it started.
// A job of three repeats runs each on a shard of its own and releases
// each before it builds the next, so while consume runs it holds one
// shard's mappings, as many as the one-repeat job under its collector,
// and none once ExecRelease returns. Nothing collects from the cell's
// start until the count after it is read — consume reads the resident
// set as it stands — so no cleanup of a shard dropped unreleased can
// bring either count down.
func TestReleasedShardHoldsNoPages(t *testing.T) {
	const slack = 1 << 20
	shard := make(map[string]int64) // one shard's mappings, by collector
	for _, c := range []struct {
		name string
		job  engine.Job
	}{
		{"cg", engine.Job{Workload: "javac", Size: 100, Collector: "cg"}},
		{"gen", engine.Job{Workload: "javac", Size: 100, Collector: "gen"}},
		{"cg_3_repeats", engine.Job{Workload: "javac", Size: 100, Collector: "cg", Repeats: 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := collected(-1)
			before := residentBytes(t)
			var during, handles int
			var held int64
			gc := debug.SetGCPercent(-1)
			engine.New(1).ExecRelease(c.job, func(r engine.Result) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				handles = r.RT.Heap.NumHandles()
				held = heap.MappingCount() - base
				during = statm(t)
				runtime.KeepAlive(r.RT) // no cleanup unmaps the shard's tables mid-cell
			})
			left := heap.MappingCount() - base
			debug.SetGCPercent(gc)
			after := residentBytes(t)
			if handles < 100_000 {
				t.Fatalf("the cell handed out %d handles, want at least 100 000", handles)
			}
			if during-before < 8*slack {
				t.Fatalf("the cell raised the resident set by only %d KiB: nothing to release", (during-before)>>10)
			}
			if c.job.Repeats > 1 {
				if want, ok := shard[c.job.Collector]; !ok || held != want {
					t.Errorf("the last of %d repeats ran with %d mappings held, want one shard's, %d",
						c.job.Repeats, held, want)
				}
			} else {
				shard[c.job.Collector] = held
			}
			if left > 0 {
				t.Errorf("the cell held %d mappings and left %d once released, want 0", held, left)
			}
			if after-before > slack {
				t.Errorf("after the shard was released the resident set is %d KiB above where it started, want at most %d",
					(after-before)>>10, slack>>10)
			}
			t.Logf("resident: %d KiB before, %+d KiB during the cell, %+d KiB once released (%d handles, %d mappings)",
				before>>10, (during-before)>>10, (after-before)>>10, handles, held)
		})
	}
}
