// Command cgrun assembles and executes a .jasm program (see
// internal/jasm for the language) under one or more collectors resolved
// from the registry, then reports what was collected and how. With
// several collectors the runs execute concurrently on independent
// runtime shards and the reports print in flag order — a side-by-side
// ablation in one invocation.
//
// Usage:
//
//	cgrun [-collector spec[,spec...]] [-heap bytes] [-gc-every N] [-workers N] [-dis] prog.jasm
//	cgrun [flags] -workload name [-size N]
//	cgrun [flags] -replay tape.cgt
//	cgrun [flags] -record tape.cgt {prog.jasm | -workload name}
//	cgrun -list
//
// The program source is a .jasm file, a registered workload analog
// (-workload/-size), or a recorded event tape (-replay). -record
// captures the run's driver-facing operation stream to a tape file —
// one collector only, since a tape is a single recording — which
// -replay later re-drives bit-identically under any collector.
//
// Collector specs are the registry's grammar: cg, cg+noopt, cg+recycle,
// cg+recycle+reset, msa, gen, gen+promote=N, none, ... ; -list prints
// every registered base with its description and modifier grammar (see
// internal/collectors).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/collectors"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/jasm"
	"repro/internal/tape"
	"repro/internal/vm"
	"repro/internal/workload"
)

// report is one shard's outcome, rendered after all shards finish.
type report struct {
	text string
	err  error
}

// source is the program being run, however it was loaded: a closure
// that drives a fresh runtime to completion, plus the arena budget a
// bare -heap 0 resolves to and the Meta a -record run stamps on its
// tape.
type source struct {
	drive func(rt *vm.Runtime) error
	heap  int
	meta  tape.Meta
}

func main() {
	collector := flag.String("collector", "cg",
		fmt.Sprintf("comma-separated collector specs (bases: %s)", strings.Join(collectors.Names(), ", ")))
	heapBytes := flag.Int("heap", 0,
		"arena size in bytes, per shard (0 = the source's own default: 1 MiB for .jasm, the spec/tape budget otherwise)")
	gcEvery := flag.Uint64("gc-every", 0,
		"force a full collection every N runtime operations (0 = only on exhaustion; the §4.7 instrumentation)")
	workers := flag.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
	dis := flag.Bool("dis", false, "print the disassembly instead of running")
	list := flag.Bool("list", false, "list the registered collectors and exit")
	wlName := flag.String("workload", "", "run a registered workload analog instead of a .jasm file")
	wlSize := flag.Int("size", 1, "workload problem size (with -workload)")
	record := flag.String("record", "", "record the run's event tape to this file (exactly one collector)")
	replay := flag.String("replay", "", "replay a recorded event tape instead of driving a program")
	flag.Parse()
	if *list {
		printCollectors()
		return
	}

	src, err := loadSource(*wlName, *wlSize, *replay, *dis)
	if err != nil {
		fatal(err)
	}
	if src == nil {
		return // -dis printed the disassembly
	}
	hb := *heapBytes
	if hb == 0 {
		hb = src.heap
	}
	if hb <= 0 || hb > heap.MaxArenaBytes {
		fatal(fmt.Errorf("arena size %d outside (0, %d]", hb, heap.MaxArenaBytes))
	}

	specs := strings.Split(*collector, ",")
	factories := make([]collectors.Factory, len(specs))
	for i, spec := range specs {
		f, err := collectors.Parse(spec)
		if err != nil {
			fatal(err)
		}
		factories[i] = f
	}
	if *record != "" && len(specs) != 1 {
		fatal(fmt.Errorf("-record captures one run: got %d collectors", len(specs)))
	}

	// Each collector gets its own runtime shard; the source is shared
	// read-only (jasm's Bind and the tape Replayer both build per-shard
	// state).
	reports := make([]report, len(specs))
	eng := engine.New(*workers)
	eng.Do(len(specs), func(i int) {
		ev := factories[i]()
		ev.GCEvery = *gcEvery
		reports[i] = runOne(src, ev, hb, *record)
	})
	for i, r := range reports {
		if r.err != nil {
			fatal(fmt.Errorf("%s: %w", specs[i], r.err))
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(r.text)
	}
}

// loadSource resolves the program from the mutually exclusive source
// flags. A nil source with nil error means -dis handled the request.
func loadSource(wlName string, wlSize int, replay string, dis bool) (*source, error) {
	switch {
	case replay != "":
		if wlName != "" || flag.NArg() != 0 {
			return nil, fmt.Errorf("-replay takes no other program source")
		}
		t, err := tape.ReadFile(replay)
		if err != nil {
			return nil, err
		}
		hb := t.Meta.HeapBytes
		if hb <= 0 {
			hb = 1 << 20
		}
		return &source{
			drive: func(rt *vm.Runtime) error {
				// Each shard replays through its own cursor state; the
				// tape itself is immutable and shared.
				return tape.NewReplayer(t).Run(rt)
			},
			heap: hb,
			meta: t.Meta,
		}, nil
	case wlName != "":
		if flag.NArg() != 0 {
			return nil, fmt.Errorf("-workload takes no .jasm argument")
		}
		spec, err := workload.ByName(wlName)
		if err != nil {
			return nil, err
		}
		return &source{
			drive: func(rt *vm.Runtime) error {
				spec.Run(rt, wlSize)
				return nil
			},
			heap: spec.HeapBytes(wlSize),
			meta: tape.Meta{
				Workload:  wlName,
				Size:      wlSize,
				Threads:   spec.Threads(wlSize),
				HeapBytes: spec.HeapBytes(wlSize),
			},
		}, nil
	default:
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: cgrun [flags] {prog.jasm | -workload name | -replay tape}")
			os.Exit(2)
		}
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return nil, err
		}
		prog, err := jasm.AssembleSource(string(b))
		if err != nil {
			return nil, err
		}
		if dis {
			fmt.Print(prog.Disassemble())
			return nil, nil
		}
		return &source{
			drive: func(rt *vm.Runtime) error {
				_, err := prog.Bind(rt).Run()
				return err
			},
			heap: 1 << 20,
			meta: tape.Meta{Workload: "jasm:" + flag.Arg(0), HeapBytes: 1 << 20},
		}, nil
	}
}

func runOne(src *source, ev vm.Events, heapBytes int, recordPath string) (rep report) {
	// jasm surfaces OOM as an error, but a collector-internal invariant
	// panic on a worker goroutine would otherwise kill the process and
	// discard every other shard's report.
	defer func() {
		if r := recover(); r != nil {
			rep = report{err: fmt.Errorf("shard panicked: %v", r)}
		}
	}()
	rt := vm.New(heap.New(heapBytes), ev)
	var rec *tape.Recorder
	if recordPath != "" {
		rec = tape.NewRecorder(rt, src.meta)
	}
	if err := src.drive(rt); err != nil {
		return report{err: err}
	}
	if rec != nil {
		// Only a completed run writes a tape: an errored or panicked
		// drive falls out above and leaves no truncated file behind.
		t := rec.Finish()
		if err := tape.WriteFile(recordPath, t); err != nil {
			return report{err: err}
		}
		fmt.Fprintf(os.Stderr, "cgrun: recorded %d ops (%d allocs) to %s [%s]\n",
			t.Ops(), t.Allocs(), recordPath, tape.Hash(t)[:12])
	}
	var b strings.Builder
	fmt.Fprintf(&b, "collector:     %s\n", ev.Name)
	fmt.Fprintf(&b, "instructions:  %d\n", rt.Instr())
	fmt.Fprintf(&b, "gc cycles:     %d\n", rt.GCCycles())
	hs := rt.Heap.Stats()
	fmt.Fprintf(&b, "allocations:   %d (%d bytes)\n", hs.Allocs, hs.BytesAlloc)
	fmt.Fprintf(&b, "frees:         %d\n", hs.Frees)
	fmt.Fprintf(&b, "live at exit:  %d objects, %d bytes\n", rt.Heap.NumLive(), rt.Heap.Arena().InUse())
	if cg, ok := ev.Collector.(*core.CG); ok {
		s := cg.Snapshot()
		fmt.Fprintf(&b, "cg popped:     %d  static: %d  thread: %d  msa: %d\n",
			s.Popped, s.Static, s.Thread, s.MSA)
	}
	return report{text: b.String()}
}

// printCollectors renders the registry: every base name with its doc
// line, plus the modifier grammar it accepts.
func printCollectors() {
	for _, name := range collectors.Names() {
		fmt.Printf("%-6s %s\n", name, collectors.Doc(name))
		if mods := collectors.Modifiers(name); len(mods) > 0 {
			// Parameterised modifiers are shown by a representative
			// instance (promote=4 stands for promote=N; see the doc
			// line for the accepted range).
			fmt.Printf("       modifiers (e.g.): +%s\n", strings.Join(mods, ", +"))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cgrun:", err)
	os.Exit(1)
}
