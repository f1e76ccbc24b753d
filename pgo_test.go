package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDefaultPGOInSync pins how the binaries are built (DESIGN.md §5
// "Profile-guided builds"): every cmd/* with a main.go holds the one
// committed CPU profile as its default.pgo, so plain `go build` is
// profile-guided for a CLI added later too, and equal bytes let `go
// build ./cmd/...` compile the dependencies once, not once per profile.
// pgo.sh writes the files; the size bounds catch an empty or truncated
// profile, and one nobody meant to commit.
func TestDefaultPGOInSync(t *testing.T) {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go found (err %v)", err)
	}
	var first string
	var want []byte
	for _, m := range mains {
		path := filepath.Join(filepath.Dir(m), "default.pgo")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%v: run pgo.sh", err)
			continue
		}
		if len(data) < 4<<10 || len(data) > 512<<10 {
			t.Errorf("%s is %d bytes, want 4 KiB to 512 KiB", path, len(data))
		}
		if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			t.Errorf("%s does not start with the gzip magic of a pprof file", path)
		}
		if first == "" {
			first, want = path, data
		} else if !bytes.Equal(data, want) {
			t.Errorf("%s differs from %s: run pgo.sh", path, first)
		}
	}
}
