package tape_test

import (
	"testing"

	"repro/internal/heap"
	"repro/internal/jasm"
	"repro/internal/tape"
	"repro/internal/vm"
	"repro/internal/workload"
)

// registry interns the same two names on every request, so a recorder
// that forgot an earlier recording's interned contents would miss the
// first-occurrence allocations here.
const registry = `
class Registry[] array
class Entry   refs 1 data 16
class Request refs 2 data 24

static registry

method main locals 1
  newarray Registry[] 4
  store 0
  load 0
  putstatic registry
  load 0
  intern Entry "svc.alpha"
  putfield 0
  load 0
  intern Entry "svc.beta"
  putfield 1
  call handle 0
  pop
  call handle 0
  pop
  call handle 0
  pop
  ret
end

method handle locals 1
  new Request
  store 0
  load 0
  intern Entry "svc.alpha"
  putfield 0
  load 0
  getstatic registry
  getfield 1
  putfield 1
  load 0
  areturn
end
`

// program is one recordable run: it drives a fresh runtime under the
// meta a recording of it carries.
type program struct {
	name  string
	meta  tape.Meta
	heap  int
	drive func(t *testing.T, rt *vm.Runtime)
}

func workloadProgram(t *testing.T, name string, size int) program {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return program{
		name: name,
		meta: tape.Meta{Workload: name, Size: size, Threads: spec.Threads(size), HeapBytes: spec.HeapBytes(size)},
		heap: 1 << 26,
		drive: func(t *testing.T, rt *vm.Runtime) {
			spec.Run(rt, size)
		},
	}
}

func jasmProgram(t *testing.T) program {
	t.Helper()
	prog, err := jasm.AssembleSource(registry)
	if err != nil {
		t.Fatal(err)
	}
	return program{
		name: "registry.jasm",
		meta: tape.Meta{Workload: "jasm:registry", HeapBytes: 1 << 20},
		heap: 1 << 20,
		drive: func(t *testing.T, rt *vm.Runtime) {
			if _, err := prog.Bind(rt).Run(); err != nil {
				t.Fatal(err)
			}
		},
	}
}

// record runs p on a fresh runtime with rec attached — a new recorder
// when rec is nil, else rec restarted — under an op limit when limit is
// positive, and returns the recorder and what Finish sealed.
func (p program) record(t *testing.T, rec *tape.Recorder, limit int) (*tape.Recorder, *tape.Tape) {
	t.Helper()
	rt := vm.New(heap.New(p.heap), vm.None())
	if rec == nil {
		rec = tape.NewRecorder(rt, p.meta)
	} else {
		rec.Restart(rt, p.meta)
	}
	if limit > 0 {
		rec.MaxOps(limit)
	}
	p.drive(t, rt)
	return rec, rec.Finish()
}

// TestRestartRecordsLikeAFreshRecorder: a recorder that abandoned a
// recording and is restarted on a fresh runtime records the next run
// exactly as a new recorder does. The abandoned run is the same program
// cut off halfway, so it leaves behind streams, handle indices, string
// indices and interned contents that all overlap the second recording's.
func TestRestartRecordsLikeAFreshRecorder(t *testing.T) {
	for _, p := range []program{workloadProgram(t, "javac", 1), workloadProgram(t, "jack", 1), jasmProgram(t)} {
		t.Run(p.name, func(t *testing.T) {
			_, fresh := p.record(t, nil, 0)
			rec, cut := p.record(t, nil, fresh.Ops()/2)
			if cut != nil {
				t.Fatalf("a %d-op limit on a %d-op run sealed a tape", fresh.Ops()/2, fresh.Ops())
			}
			if _, again := p.record(t, rec, 0); again == nil || tape.Hash(again) != tape.Hash(fresh) {
				t.Errorf("restarted recorder sealed %v, want the fresh recorder's %d-op tape %s",
					again, fresh.Ops(), tape.Hash(fresh)[:12])
			}
		})
	}
}

// TestPublishedTapeOutlivesRestart: a sealed tape owns its streams. The
// recorder that sealed it goes on to record other programs — one in
// full, one abandoned partway — and the first tape's hash, and the
// second's, do not change.
func TestPublishedTapeOutlivesRestart(t *testing.T) {
	javac, compress, jack := workloadProgram(t, "javac", 1), workloadProgram(t, "compress", 1), workloadProgram(t, "jack", 1)
	rec, first := javac.record(t, nil, 0)
	h1 := tape.Hash(first)
	_, second := compress.record(t, rec, 0)
	h2 := tape.Hash(second)
	if got := tape.Hash(first); got != h1 {
		t.Errorf("javac tape hash %s after the recorder recorded compress, was %s", got[:12], h1[:12])
	}
	if _, cut := jack.record(t, rec, 4096); cut != nil {
		t.Fatalf("jack/1 under a 4096-op limit sealed a %d-op tape", cut.Ops())
	}
	if got := tape.Hash(first); got != h1 {
		t.Errorf("javac tape hash %s after an abandoned recording, was %s", got[:12], h1[:12])
	}
	if got := tape.Hash(second); got != h2 {
		t.Errorf("compress tape hash %s after an abandoned recording, was %s", got[:12], h2[:12])
	}
}
