package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestDebugServerServesSnapshotAndPprof boots the -debug-addr surface
// on a free port and checks both halves: /progress returns the live
// JSON snapshot, and the pprof index answers.
func TestDebugServerServesSnapshotAndPprof(t *testing.T) {
	p := &obs.Progress{}
	p.AddTotal(7)
	p.AddComputed(3)
	p.EnsureWorkers(1)
	p.SetWorkerLabel(0, "w0")
	srv, err := Serve("127.0.0.1:0", p)
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

// TestDebugServerHealthz pins the /healthz contract: a static 200 ok
// with no callback installed, and the callback's drain state rendered
// as a 503 — which is how load balancers and the smoke scripts observe
// a draining server.
func TestDebugServerHealthz(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func() (int, Health) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var h Health
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("healthz is not JSON: %v: %s", err, body)
		}
		return resp.StatusCode, h
	}

	if code, h := get(); code != http.StatusOK || h.Status != "ok" || h.Draining {
		t.Fatalf("default healthz = %d %+v, want 200 ok", code, h)
	}

	srv.SetHealth(func() Health { return Health{Draining: true, InFlight: 3} })
	code, h := get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", code)
	}
	if h.Status != "draining" || !h.Draining || h.InFlight != 3 {
		t.Fatalf("draining healthz body = %+v", h)
	}

	srv.SetHealth(nil)
	if code, h := get(); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz after reset = %d %+v, want 200 ok", code, h)
	}

	// The endpoint listing advertises healthz.
	resp, err := http.Get("http://" + srv.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "/healthz") {
		t.Fatalf("root listing does not mention /healthz: %s", body)
	}
}
