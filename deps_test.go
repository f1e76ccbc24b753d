package repro

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestBatchBinariesLinkNoHTTP: linking net/http costs a process about
// 4.6 MiB of resident memory before it does any work, so no batch
// binary may link it, through any import path. Serving, its client,
// /progress and pprof are cgserve's (DESIGN.md §1).
func TestBatchBinariesLinkNoHTTP(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go command on PATH: %v", err)
	}
	for _, bin := range []string{"./cmd/cgsweep", "./cmd/cgrun", "./cmd/cgstats", "./cmd/cgbench", "./cmd/cgworker"} {
		out, err := exec.Command(gobin, "list", "-deps", bin).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", bin, err)
		}
		if slices.Contains(strings.Fields(string(out)), "net/http") {
			t.Errorf("%s links net/http; network code belongs in cmd/cgserve", bin)
		}
	}
}
