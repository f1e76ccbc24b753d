// Package tape records and replays the driver-facing operation stream
// of a vm.Runtime as a compact, versioned binary "event tape".
//
// The thesis's whole methodology is "same program trace, different
// collectors": a cell's event stream is a pure function of (workload,
// size) — driver control flow depends only on its own deterministic
// RNG and on graph reads whose Nil-ness is identical under every
// collector — while handle IDs, frees and cycle behavior all fall out
// of re-driving that stream under whichever collector a cell selects.
// A tape therefore captures exactly the driver's *inputs* to the
// runtime (allocate, put/get field, call, return, intern, ...) and
// none of the collector's activity, so one recording replays
// bit-identically under any registered collector spec, any heap
// budget and any gc-every setting.
//
// Encoding. Ops and operands live in separate streams (SoA): one
// opcode byte per operation in Tape.ops, varint operands in
// Tape.args. Object operands are dense 1-based allocation-sequence
// indices — the Nth value-producing operation (New, NewArray, or a
// first-occurrence Intern) is index N, and 0 is the null reference —
// so tapes are independent of handle-ID assignment (which differs
// across collectors as frees recycle handles) and stay small: a hot
// loop's operands are recent indices, one or two varint bytes.
// Frames are addressed positionally: ops apply to the recorder's
// current frame, with an explicit opSetFrame(thread, depth) emitted
// only when the target changes outside the call structure (Call and
// NewThread update the current frame implicitly on both sides of the
// seam).
//
// The serialized form (Encode/Decode, WriteFile/ReadFile) is a
// versioned header + class table + string table + the two streams,
// trailed by a sha256 of everything before it — the results store's
// content-address idiom — so a tape file's hash is its identity and
// corruption is always detected.
package tape

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/heap"
)

// Version is the serialized tape format version. Decode rejects any
// other: tapes are regenerable artifacts, so there is no migration
// path, only re-recording.
const Version = 1

// Opcodes of the operation stream. The comment after each lists its
// varint operands in order. "ref" operands are allocation-sequence
// indices (0 = Nil); "str" and "class" operands index the tape's
// string and class tables.
const (
	opSetFrame   byte = iota // thread (0 = static pseudo-frame), depth
	opNewThread              // nlocals
	opCall                   // thread, nlocals
	opReturn                 // ref (the body's result)
	opAlloc                  // class, extra (0 = New, else NewArray)
	opPutField               // ref obj, slot, ref val
	opGetField               // ref obj, slot
	opSetLocal               // slot, ref val
	opPutStatic              // slot, ref val
	opGetStatic              // slot
	opStaticSlot             // str name (slot creation only)
	opIntern                 // str content, class
	opNativePin              // ref
	opForget                 // ref
	opForceCollect
	numOps
)

// Meta identifies what a tape is a recording of. Workload/Size name
// the cell; Threads and HeapBytes carry the workload spec's answers so
// a replayed tape can stand in as a first-class workload registry
// entry without its origin being registered.
type Meta struct {
	Workload  string
	Size      int
	Threads   int
	HeapBytes int
}

// Tape is one recorded operation stream plus everything a fresh
// runtime needs to replay it: the class table (snapshot of the
// recording heap, in ClassID order) and the interned string/static
// name table. Tapes are immutable once recorded and safe for
// concurrent replay (each Replayer carries its own cursor state).
type Tape struct {
	Meta Meta

	classes []heap.Class
	strings []string
	ops     []byte
	args    []byte
	// allocs counts the value-producing operations, i.e. the highest
	// allocation-sequence index any ref operand can carry. Replayers
	// pre-size their index→handle table from it.
	allocs int

	// vals is args decoded into whole operands, materialized once on
	// first replay and shared read-only by every Replayer: the varint
	// stream is the wire/storage form, the flat array is the replay
	// form (a bounds-checked index beats a varint decode in the inner
	// loop, and the decode cost is paid once per tape, not per run).
	valsOnce sync.Once
	vals     []uint64
	valsErr  error
}

// numOperands counts the varints in args: each ends on its one byte
// with the top bit clear.
func (t *Tape) numOperands() int {
	n := 0
	for _, b := range t.args {
		if b < 0x80 {
			n++
		}
	}
	return n
}

// operands returns the decoded operand array, materializing it on
// first use.
func (t *Tape) operands() ([]uint64, error) {
	t.valsOnce.Do(func() {
		vals := make([]uint64, 0, t.numOperands())
		for p := 0; p < len(t.args); {
			v, n := binary.Uvarint(t.args[p:])
			if n <= 0 {
				t.valsErr = fmt.Errorf("tape: truncated operand stream at byte %d", p)
				return
			}
			vals = append(vals, v)
			p += n
		}
		t.vals = vals
	})
	return t.vals, t.valsErr
}

// Ops reports the number of recorded operations.
func (t *Tape) Ops() int { return len(t.ops) }

// Allocs reports the number of value-producing operations (the replay
// handle table's size).
func (t *Tape) Allocs() int { return t.allocs }

// MemBytes is the tape's resident footprint for cache admission: the
// two streams and the decoded operand array replays materialize,
// exactly (8 bytes per operand), plus a small allowance for the tables.
func (t *Tape) MemBytes() int {
	n := len(t.ops) + len(t.args) + 8*t.numOperands() + 128
	for _, s := range t.strings {
		n += len(s) + 16
	}
	for _, c := range t.classes {
		n += len(c.Name) + 32
	}
	return n
}
