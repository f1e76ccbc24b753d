package tape

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"

	"repro/internal/heap"
)

// magic opens every serialized tape; the final byte is the format
// version, so a version bump is indistinguishable from a foreign file
// — both are simply "not a tape we read".
var magic = [8]byte{'c', 'g', 't', 'a', 'p', 'e', 0, Version}

// Encode serializes t. The encoding is deterministic — the same tape
// always produces the same bytes, so Hash doubles as a content
// address — and ends with a sha256 of everything before it.
func Encode(t *Tape) []byte {
	b := make([]byte, 0, len(t.ops)+len(t.args)+256)
	b = append(b, magic[:]...)
	b = putStr(b, t.Meta.Workload)
	b = binary.AppendUvarint(b, uint64(t.Meta.Size))
	b = binary.AppendUvarint(b, uint64(t.Meta.Threads))
	b = binary.AppendUvarint(b, uint64(t.Meta.HeapBytes))
	b = binary.AppendUvarint(b, uint64(len(t.classes)))
	for _, c := range t.classes {
		b = putStr(b, c.Name)
		b = binary.AppendUvarint(b, uint64(c.Refs))
		b = binary.AppendUvarint(b, uint64(c.Data))
		if c.IsArray {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(t.strings)))
	for _, s := range t.strings {
		b = putStr(b, s)
	}
	b = binary.AppendUvarint(b, uint64(t.allocs))
	b = binary.AppendUvarint(b, uint64(len(t.ops)))
	b = append(b, t.ops...)
	b = binary.AppendUvarint(b, uint64(len(t.args)))
	b = append(b, t.args...)
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// Hash returns the tape's content address: the hex sha256 trailer its
// encoding carries.
func Hash(t *Tape) string {
	enc := Encode(t)
	return hex.EncodeToString(enc[len(enc)-sha256.Size:])
}

// Decode parses an encoded tape, verifying magic, version, integrity
// hash, opcode validity and exact length. Tapes are regenerable, so
// every failure is terminal — there is no partial decode.
func Decode(b []byte) (*Tape, error) {
	if len(b) < len(magic)+sha256.Size {
		return nil, errors.New("tape: encoding too short")
	}
	if [8]byte(b[:8]) != magic {
		return nil, fmt.Errorf("tape: bad magic or version (want v%d)", Version)
	}
	body, trailer := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if sum := sha256.Sum256(body); [sha256.Size]byte(trailer) != sum {
		return nil, errors.New("tape: integrity hash mismatch")
	}
	r := reader{b: body, pos: len(magic)}
	t := &Tape{}
	t.Meta.Workload = r.str()
	t.Meta.Size = int(r.uvarint())
	t.Meta.Threads = int(r.uvarint())
	t.Meta.HeapBytes = int(r.uvarint())
	// A class takes at least 4 bytes and a string at least 1, so no
	// count can size a table past the bytes that would fill it.
	t.classes = make([]heap.Class, r.upTo((len(body)-r.pos)/4, "class count"))
	for i := range t.classes {
		t.classes[i] = heap.Class{
			Name:    r.str(),
			Refs:    r.upTo(heap.MaxArenaBytes, "class refs"),
			Data:    r.upTo(heap.MaxArenaBytes, "class data"),
			IsArray: r.upTo(1, "class array flag") == 1,
		}
	}
	t.strings = make([]string, r.upTo(len(body)-r.pos, "string count"))
	for i := range t.strings {
		t.strings[i] = r.str()
	}
	t.allocs = r.upTo(len(body)-r.pos, "allocs")
	t.ops = r.bytes(int(r.uvarint()))
	t.args = r.bytes(int(r.uvarint()))
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("tape: %d trailing bytes", len(body)-r.pos)
	}
	// Every value-producing op is one op: a replayer sizes its handle
	// table by allocs.
	if t.allocs > len(t.ops) {
		return nil, fmt.Errorf("tape: %d allocs in %d ops", t.allocs, len(t.ops))
	}
	for i, op := range t.ops {
		if op >= numOps {
			return nil, fmt.Errorf("tape: bad opcode %d at op %d", op, i)
		}
	}
	return t, nil
}

// WriteFile encodes t to path (0644).
func WriteFile(path string, t *Tape) error {
	return os.WriteFile(path, Encode(t), 0o644)
}

// ReadFile reads and decodes the tape at path.
func ReadFile(path string) (*Tape, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

func putStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// reader is a cursor over an encoded body that latches its first
// error; once err is set every accessor returns zero values, so decode
// code reads straight through and checks err once.
type reader struct {
	b   []byte
	pos int
	err error
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = errors.New("tape: " + msg)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	if n > 1 && r.b[r.pos+n-1] == 0 {
		// Encode writes the shortest form; a padded one would not
		// re-encode to the same bytes.
		r.fail("overlong varint")
		return 0
	}
	r.pos += n
	return v
}

// upTo reads a varint and fails if it is above max: every count and
// size is checked before anything is sized by it.
func (r *reader) upTo(max int, what string) int {
	v := r.uvarint()
	if v > uint64(max) {
		r.fail(fmt.Sprintf("%s %d above %d", what, v, max))
		return 0
	}
	return int(v)
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.pos {
		r.fail("truncated byte run")
		return nil
	}
	s := r.b[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return s
}

func (r *reader) str() string { return string(r.bytes(int(r.uvarint()))) }
