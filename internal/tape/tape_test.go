package tape_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/collectors"
	"repro/internal/heap"
	"repro/internal/tape"
	"repro/internal/vm"
	"repro/internal/workload"
)

// recordTape drives (workload, size) under colSpec on a hb-byte arena
// with a Recorder attached and returns the sealed tape.
func recordTape(t *testing.T, name string, size int, colSpec string, hb int) *tape.Tape {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := collectors.Parse(colSpec)
	if err != nil {
		t.Fatal(err)
	}
	rt := vm.New(heap.New(hb), mk())
	rec := tape.NewRecorder(rt, tape.Meta{
		Workload: name, Size: size,
		Threads: spec.Threads(size), HeapBytes: spec.HeapBytes(size),
	})
	spec.Run(rt, size)
	return rec.Finish()
}

// TestCodecRoundTrip pins the serialized form: Encode→Decode is the
// identity (checked by re-encoding), the encoding is deterministic,
// files round-trip, and corruption — bit flips anywhere, truncation,
// trailing garbage — is always detected.
func TestCodecRoundTrip(t *testing.T) {
	tp := recordTape(t, "compress", 1, "none", 1<<24)
	enc := tape.Encode(tp)
	dec, err := tape.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tape.Encode(dec), enc) {
		t.Fatal("decode→re-encode changed the bytes")
	}
	if dec.Meta != tp.Meta || dec.Ops() != tp.Ops() || dec.Allocs() != tp.Allocs() {
		t.Fatalf("decoded header differs: %+v vs %+v", dec.Meta, tp.Meta)
	}
	if tape.Hash(dec) != tape.Hash(tp) {
		t.Fatal("content hash changed across a round trip")
	}

	path := filepath.Join(t.TempDir(), "t.cgt")
	if err := tape.WriteFile(path, tp); err != nil {
		t.Fatal(err)
	}
	if _, err := tape.ReadFile(path); err != nil {
		t.Fatal(err)
	}

	// Every single-byte flip must fail to decode: either the sha256
	// trailer catches it, or (flips inside the trailer itself) the
	// re-hash does.
	for _, i := range []int{0, 7, len(enc) / 2, len(enc) - 40, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := tape.Decode(bad); err == nil {
			t.Errorf("flip at byte %d decoded successfully", i)
		}
	}
	if _, err := tape.Decode(enc[:len(enc)-5]); err == nil {
		t.Error("truncated encoding decoded successfully")
	}
	if _, err := tape.Decode(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("encoding with trailing garbage decoded successfully")
	}
}

// TestTapeConfigIndependence is the methodology pin: a tape is a pure
// function of (workload, size). Recording the same cell under disjoint
// collectors — no collection, eager CG pops, handle-recycling CG, a
// tracing collector, a generational one — must produce byte-identical
// encodings even though frees, handle recycling and cycle counts all
// differ across those runs.
func TestTapeConfigIndependence(t *testing.T) {
	for _, cell := range []struct {
		wl   string
		size int
	}{{"compress", 1}, {"jess", 1}, {"mtrt", 1}} {
		var want []byte
		var wantSpec string
		for _, colSpec := range []string{"none", "cg", "cg+recycle", "msa", "gen"} {
			// A roomy arena keeps "none" from exhausting the heap; the
			// tape contents do not depend on the arena size either.
			enc := tape.Encode(recordTape(t, cell.wl, cell.size, colSpec, 1<<26))
			if want == nil {
				want, wantSpec = enc, colSpec
				continue
			}
			if !bytes.Equal(enc, want) {
				t.Errorf("%s/%d: tape under %s differs from tape under %s",
					cell.wl, cell.size, colSpec, wantSpec)
			}
		}
	}
}

// runSnap is everything observable about a finished run that the
// equivalence property compares.
type runSnap struct {
	instr    uint64
	gcCycles int
	stats    heap.Stats
	numLive  int
	live     []heap.HandleID
	info     heap.Info
	panicked string
}

// runCell executes one (workload, size, collector, gcEvery) cell on a
// fresh shard, either driven by the workload's own driver (rp == nil)
// or replayed from a tape, and snapshots the outcome. Workload panics
// (heap exhaustion under a tight arena) are part of the outcome: a
// replayed run must fail exactly where the driven one does.
func runCell(t *testing.T, name string, size int, colSpec string, gcEvery uint64,
	hb int, rp *tape.Replayer) (snap runSnap) {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := collectors.Parse(colSpec)
	if err != nil {
		t.Fatal(err)
	}
	ev := mk()
	ev.GCEvery = gcEvery
	rt := vm.New(heap.New(hb), ev)
	func() {
		defer func() {
			if r := recover(); r != nil {
				snap.panicked = fmt.Sprint(r)
			}
		}()
		if rp != nil {
			if err := rp.Run(rt); err != nil {
				t.Fatalf("%s/%d under %s: replay: %v", name, size, colSpec, err)
			}
		} else {
			spec.Run(rt, size)
		}
	}()
	snap.instr = rt.Instr()
	snap.gcCycles = rt.GCCycles()
	snap.stats = rt.Heap.Stats()
	snap.numLive = rt.Heap.NumLive()
	rt.Heap.ForEachLive(func(id heap.HandleID) { snap.live = append(snap.live, id) })
	snap.info = rt.Heap.Arena().Info()
	return snap
}

// TestReplayEquivalence is the bit-identity gate: for every collector
// spec the registry can produce, a cell replayed from a tape (recorded
// once, under "none") is indistinguishable from the driven cell —
// instruction count, cycle count, allocation statistics, the exact
// live handle set, arena occupancy, and even the panic message when
// the tight arena exhausts. This is what licenses the engine to
// substitute replay for driving.
func TestReplayEquivalence(t *testing.T) {
	cells := []struct {
		wl   string
		size int
	}{{"compress", 1}, {"jess", 1}, {"raytrace", 1}, {"mtrt", 1}}
	for _, cell := range cells {
		spec, err := workload.ByName(cell.wl)
		if err != nil {
			t.Fatal(err)
		}
		hb := spec.HeapBytes(cell.size)
		tp := recordTape(t, cell.wl, cell.size, "none", 1<<26)
		for _, colSpec := range collectors.AllSpecs() {
			for _, gcEvery := range []uint64{0, 700} {
				driven := runCell(t, cell.wl, cell.size, colSpec, gcEvery, hb, nil)
				replayed := runCell(t, cell.wl, cell.size, colSpec, gcEvery, hb, tape.NewReplayer(tp))
				if !reflect.DeepEqual(driven, replayed) {
					t.Errorf("%s/%d under %s gc-every %d: replayed run differs\ndriven:   %+v\nreplayed: %+v",
						cell.wl, cell.size, colSpec, gcEvery, driven, replayed)
				}
			}
		}
	}
}

// TestReplayerReuse pins that one Replayer replays repeatedly (the
// engine shares one across a job's repeats) with identical results.
func TestReplayerReuse(t *testing.T) {
	tp := recordTape(t, "jess", 1, "none", 1<<26)
	mk, err := collectors.Parse("cg")
	if err != nil {
		t.Fatal(err)
	}
	rp := tape.NewReplayer(tp)
	var want runSnap
	for i := 0; i < 3; i++ {
		rt := vm.New(heap.New(1<<24), mk())
		if err := rp.Run(rt); err != nil {
			t.Fatal(err)
		}
		got := runSnap{instr: rt.Instr(), stats: rt.Heap.Stats(), numLive: rt.Heap.NumLive()}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replay %d differs: %+v vs %+v", i, got, want)
		}
	}
}

// TestRegisterTape runs a replayed spec through the workload registry
// surface the engine uses.
func TestRegisterTape(t *testing.T) {
	tp := recordTape(t, "compress", 1, "none", 1<<24)
	name := "compress-taped"
	if _, err := workload.ByName(name); err == nil {
		t.Skip("replayed spec already registered by another test")
	}
	workload.RegisterTape(name, tp)
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	mk, _ := collectors.Parse("cg")
	rt := vm.New(heap.New(spec.HeapBytes(1)), mk())
	spec.Run(rt, 1)
	driven := runCell(t, "compress", 1, "cg", 0, spec.HeapBytes(1), nil)
	if rt.Instr() != driven.instr || rt.Heap.Stats() != driven.stats {
		t.Fatalf("registered replay differs from driven run: instr %d vs %d",
			rt.Instr(), driven.instr)
	}
}

func BenchmarkReplay(b *testing.B) {
	for _, wl := range []string{"compress", "jack", "db"} {
		spec, err := workload.ByName(wl)
		if err != nil {
			b.Fatal(err)
		}
		mk, _ := collectors.Parse("cg")
		hb := spec.HeapBytes(10)
		rt := vm.New(heap.New(hb), mk())
		rec := tape.NewRecorder(rt, tape.Meta{Workload: wl, Size: 10})
		spec.Run(rt, 10)
		tp := rec.Finish()
		rp := tape.NewReplayer(tp)
		b.Run(wl, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rt.Reset(mk())
				if err := rp.Run(rt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(wl+"-drive", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rt.Reset(mk())
				spec.Run(rt, 10)
			}
		})
	}
}
