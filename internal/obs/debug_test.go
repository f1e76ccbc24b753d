package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestDebugServerServesSnapshotAndPprof boots the -debug-addr surface
// on a free port and checks both halves: /progress returns the live
// JSON snapshot, and the pprof index answers.
func TestDebugServerServesSnapshotAndPprof(t *testing.T) {
	p := &Progress{}
	p.AddTotal(7)
	p.AddComputed(3)
	p.EnsureWorkers(1)
	p.SetWorkerLabel(0, "w0")
	srv, err := Serve("127.0.0.1:0", func() Snapshot {
		ps := p.Snapshot()
		return Snapshot{
			Provenance: Capture(Nanotime()),
			Progress:   &ps,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/progress"), &snap); err != nil {
		t.Fatalf("progress snapshot is not JSON: %v", err)
	}
	if snap.Progress == nil || snap.Progress.CellsTotal != 7 || snap.Progress.CellsComputed != 3 {
		t.Fatalf("snapshot progress = %+v", snap.Progress)
	}
	if len(snap.Progress.Workers) != 1 || snap.Progress.Workers[0].Label != "w0" {
		t.Fatalf("snapshot workers = %+v", snap.Progress.Workers)
	}
	if snap.Provenance.GoVersion == "" {
		t.Fatal("snapshot provenance missing")
	}

	if body := string(get("/debug/pprof/")); !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index does not list profiles: %.120s", body)
	}
}
