package tape

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
)

// uv appends each value as a varint, the encoding of every count.
func uv(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// forge builds a well-sealed encoding with no classes and no strings
// unless head says otherwise: head is every field between the meta and
// the allocs count, written as given, so a test can forge any count.
func forge(head []byte, allocs uint64, ops, args []byte) []byte {
	b := append(magic[:], uv(0, 0, 0, 0)...) // workload "", size, threads, heap bytes
	b = append(b, head...)
	b = append(b, uv(allocs, uint64(len(ops)))...)
	b = append(b, ops...)
	b = append(b, uv(uint64(len(args)))...)
	b = append(b, args...)
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// hostile are inputs each of which once killed the process from Decode
// or replay (an allocation sized by a forged count, a Go runtime panic
// out of Run, or calls nested until the Go stack or the heap ran out),
// with what the error must now say.
var hostile = []struct {
	name, want string
	enc        []byte
}{
	{"class-count", "class count 68719476736 above", forge(uv(1<<36), 0, nil, nil)},
	{"string-count", "string count 68719476736 above", forge(uv(0, 1<<36), 0, nil, nil)},
	{"allocs-beyond-bytes", "allocs 68719476736 above", forge(uv(0, 0), 1<<36, nil, nil)},
	{"allocs-beyond-ops", "1 allocs in 0 ops", forge(uv(0, 0), 1, nil, nil)},
	{"class-refs", "class refs 4294967296 above", forge(append(uv(1, 1, 'C', 1<<32, 0), 0, 0), 0, nil, nil)},
	{"thread-locals", "nlocals above", forge(uv(0, 0), 0, []byte{opNewThread}, uv(1<<40))},
	{"call-locals", "nlocals above", forge(uv(0, 0), 0, []byte{opNewThread, opCall}, uv(0, 1, 1<<40))},
	{"array-length", "array length above", forge(append(uv(1, 1, 'A', 0, 0), 1, 0), 1,
		[]byte{opNewThread, opAlloc}, uv(0, 0, 1<<61+1))},
	{"intern-string", "string beyond", forge(uv(0, 0), 0, []byte{opNewThread, opIntern}, uv(0, 7, 0))},
	{"call-depth", "call depth above vm.MaxFrames (1024)", nestedCalls(vm.MaxFrames, 0)},
	{"live-locals", "a thread's live locals above vm.MaxLiveLocals (131070)", nestedCalls(3, vm.MaxLocals)},
}

// nestedCalls forges a tape whose one thread makes n calls, each inside
// the last and each with nlocals locals, and never returns: every call
// nests the replayer on the Go stack.
func nestedCalls(n int, nlocals uint64) []byte {
	ops, args := []byte{opNewThread}, uv(0)
	for range n {
		ops = append(ops, opCall)
		args = append(args, uv(1, nlocals)...)
	}
	return forge(uv(0, 0), 0, ops, args)
}

// replay runs tp on a fresh 1 MiB runtime with no collector and
// recovers a panic Run re-raises (a heap exhaustion, or a store into a
// slot the object lacks), as the engine recovers a cell's.
func replay(tp *Tape) {
	defer func() { _ = recover() }()
	_ = NewReplayer(tp).Run(vm.New(heap.New(1<<20), vm.None()))
}

// TestHostileTapesFailAsTapeErrors: a tape is input, so a forged count
// or operand ends in a tape error from Decode or Run — never in an
// allocation sized by the input or a Go runtime panic.
func TestHostileTapesFailAsTapeErrors(t *testing.T) {
	for _, h := range hostile {
		tp, err := Decode(h.enc)
		if err == nil {
			err = NewReplayer(tp).Run(vm.New(heap.New(1<<20), vm.None()))
		}
		if err == nil || !strings.HasPrefix(err.Error(), "tape: ") || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%s: %v, want a tape error containing %q", h.name, err, h.want)
		}
	}
}

// TestDecodeRejectsWhatEncodeNeverWrites: a padded varint or a class
// flag other than 0 and 1 decodes to a tape that would re-encode to
// other bytes, so Decode refuses both.
func TestDecodeRejectsWhatEncodeNeverWrites(t *testing.T) {
	for name, enc := range map[string][]byte{
		"padded varint": forge([]byte{0x80, 0x00, 0}, 0, nil, nil),
		"class flag 2":  forge(append(uv(1, 1, 'C', 0, 0), 2, 0), 0, nil, nil),
	} {
		if _, err := Decode(enc); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	if _, err := Decode(forge(append(uv(1, 1, 'C', 2, 8), 1, 0), 0, nil, nil)); err != nil {
		t.Errorf("a forged tape with one class and no ops: %v", err)
	}
}

// FuzzTapeDecode feeds Decode arbitrary bytes, as given and resealed
// with a fresh sha256 so that mutations reach the parser past the
// integrity check. Decode must never crash; a tape it accepts must
// re-encode to the very bytes it came from and replay to nil or an
// error. The seeds are the hostile inputs above and, in testdata/fuzz,
// the recordings of compress/1 and examples/worked_example.jasm.
func FuzzTapeDecode(f *testing.F) {
	for _, h := range hostile {
		f.Add(h.enc)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ins := [][]byte{b}
		if n := len(b) - sha256.Size; n >= 0 {
			sum := sha256.Sum256(b[:n])
			ins = append(ins, append(b[:n:n], sum[:]...))
		}
		for _, in := range ins {
			tp, err := Decode(in)
			if err != nil {
				continue
			}
			if !bytes.Equal(Encode(tp), in) {
				t.Fatalf("Decode accepted %d bytes that re-encode differently", len(in))
			}
			replay(tp)
		}
	})
}
