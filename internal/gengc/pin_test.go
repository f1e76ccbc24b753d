package gengc_test

import (
	"fmt"
	"testing"

	"repro/internal/gengc"
	"repro/internal/heap"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestStatsPinned holds gen's counters to the values recorded at PR 27,
// when the remembered set was a map walked in Go's random order: all
// eight analogs at sizes 1 and 10 under gen and gen+promote=1, on a
// roomy arena with a forced cycle every 250 ops, so every analog runs
// minors and most run majors. Any change to marking, freeing, promotion
// or remembered-set insertion — or to the analogs' random stream —
// moves a number here.
func TestStatsPinned(t *testing.T) {
	pinned := []struct {
		name          string
		size, promote int
		stats         gengc.Stats // Minor, Major, FreedYoung, FreedOld, Promoted, Remembered
		live          int         // objects live at exit
	}{
		{"compress", 1, 2, gengc.Stats{5, 5, 1, 0, 379, 2}, 480},
		{"compress", 10, 2, gengc.Stats{5, 5, 1, 0, 379, 2}, 500},
		{"jess", 1, 2, gengc.Stats{30, 19, 395, 234, 649, 148}, 469},
		{"jess", 10, 2, gengc.Stats{298, 179, 4550, 2272, 5962, 1910}, 3739},
		{"raytrace", 1, 2, gengc.Stats{71, 0, 3486, 0, 712, 185}, 749},
		{"raytrace", 10, 2, gengc.Stats{664, 0, 32455, 0, 6742, 2006}, 6760},
		{"db", 1, 2, gengc.Stats{16, 8, 417, 0, 728, 234}, 753},
		{"db", 10, 2, gengc.Stats{201, 8, 11094, 0, 741, 234}, 783},
		{"javac", 1, 2, gengc.Stats{9, 5, 95, 0, 350, 125}, 393},
		{"javac", 10, 2, gengc.Stats{144, 99, 2921, 0, 3634, 1694}, 3749},
		{"mpegaudio", 1, 2, gengc.Stats{6, 6, 0, 0, 625, 2}, 862},
		{"mpegaudio", 10, 2, gengc.Stats{7, 6, 65, 0, 750, 2}, 812},
		{"mtrt", 1, 2, gengc.Stats{71, 0, 3486, 0, 712, 185}, 749},
		{"mtrt", 10, 2, gengc.Stats{664, 0, 32416, 0, 6746, 2034}, 6808},
		{"jack", 1, 2, gengc.Stats{30, 0, 1980, 0, 169, 0}, 236},
		{"jack", 10, 2, gengc.Stats{303, 0, 20594, 0, 1227, 0}, 1299},
		{"compress", 1, 1, gengc.Stats{5, 5, 1, 0, 442, 7}, 480},
		{"compress", 10, 1, gengc.Stats{5, 5, 1, 0, 442, 7}, 500},
		{"jess", 1, 1, gengc.Stats{30, 22, 111, 518, 969, 257}, 469},
		{"jess", 10, 1, gengc.Stats{298, 202, 1603, 5219, 8937, 2792}, 3739},
		{"raytrace", 1, 1, gengc.Stats{71, 0, 2972, 0, 1244, 350}, 1263},
		{"raytrace", 10, 1, gengc.Stats{664, 0, 27926, 0, 11283, 3507}, 11289},
		{"db", 1, 1, gengc.Stats{16, 8, 391, 0, 757, 246}, 779},
		{"db", 10, 1, gengc.Stats{201, 8, 10270, 0, 1568, 626}, 1607},
		{"javac", 1, 1, gengc.Stats{9, 5, 90, 5, 375, 137}, 393},
		{"javac", 10, 1, gengc.Stats{144, 97, 2576, 345, 3985, 1884}, 3749},
		{"mpegaudio", 1, 1, gengc.Stats{6, 6, 0, 0, 750, 8}, 862},
		{"mpegaudio", 10, 1, gengc.Stats{7, 6, 65, 0, 804, 8}, 812},
		{"mtrt", 1, 1, gengc.Stats{71, 0, 2972, 0, 1244, 350}, 1263},
		{"mtrt", 10, 1, gengc.Stats{664, 0, 27885, 0, 11291, 3492}, 11339},
		{"jack", 1, 1, gengc.Stats{30, 0, 1742, 0, 415, 62}, 474},
		{"jack", 10, 1, gengc.Stats{303, 0, 18263, 0, 3576, 601}, 3630},
	}
	for _, p := range pinned {
		t.Run(fmt.Sprintf("%s/%d/promote=%d", p.name, p.size, p.promote), func(t *testing.T) {
			s, err := workload.ByName(p.name)
			if err != nil {
				t.Fatal(err)
			}
			g := gengc.NewTuned(p.promote)
			rt := vm.New(heap.New(4*s.HeapBytes(p.size)+1<<20), g)
			rt.SetGCEvery(250)
			s.Run(rt, p.size)
			if got := g.Stats(); got != p.stats || rt.Heap.NumLive() != p.live {
				t.Fatalf("stats %+v, %d live; pinned %+v, %d live", got, rt.Heap.NumLive(), p.stats, p.live)
			}
		})
	}
}
