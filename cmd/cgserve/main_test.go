package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/results"
	"repro/internal/serve"
)

// TestSweepRejectsServerFlags: `cgserve sweep` is a client, so a flag
// that configures the server is refused by name with exit 2, whatever
// value it was given, while the client's own command line parses.
func TestSweepRejectsServerFlags(t *testing.T) {
	var stderr bytes.Buffer
	url, spec, err := parseSweep([]string{"-client", "a", "-figs", "4.1", "http://h"}, &stderr)
	if err != nil || url != "http://h" || spec.Client != "a" || !slices.Equal(spec.Figs, []string{"4.1"}) {
		t.Errorf("client command line: url %q, spec %+v, err %v; stderr:\n%s", url, spec, err, stderr.String())
	}
	for _, server := range [][]string{{"-addr", ":8080"}, {"-store", "d"}, {"-workers", "2"}} {
		stderr.Reset()
		args := append(server, "-figs", "4.1", "http://h")
		if code := sweep(args, new(bytes.Buffer), &stderr); code == 0 || !strings.Contains(stderr.String(), server[0]) {
			t.Errorf("cgserve sweep %v: exit %d, want non-zero naming %s; stderr:\n%s", args, code, server[0], stderr.String())
		}
	}
	for _, bad := range [][]string{{"-figs", "4.1"}, {"-figs", "9.9", "http://h"}, {"http://h", "http://g"}} {
		stderr.Reset()
		if code := sweep(bad, new(bytes.Buffer), &stderr); code != 2 {
			t.Errorf("cgserve sweep %v: exit %d, want 2; stderr:\n%s", bad, code, stderr.String())
		}
	}
}

// TestSweepPrintsTheBatchBytes: `cgserve sweep` against a server writes
// the batch cgsweep's bytes for the same figures to stdout, and closes
// stderr with the summary line the batch sweep's client mode printed.
func TestSweepPrintsTheBatchBytes(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Workers: 2, Store: store})
	ts := httptest.NewServer(srv)
	defer func() {
		srv.Drain()
		srv.Wait()
		ts.Close()
	}()
	want, err := os.ReadFile("../../internal/experiments/testdata/sweep_4_1_4_5_4_11.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := sweep([]string{"-client", "t", "-figs", "4.1,4.5,4.11", ts.URL}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout diverged from the batch golden:\n--- got\n%s--- want\n%s", stdout.String(), want)
	}
	summary := regexp.MustCompile(`^cgsweep: 24 cells from ` + regexp.QuoteMeta(ts.URL) +
		` in [0-9.]+m?s \(24 computed, 0 from store, 0 deduped in flight\)\n$`)
	if !summary.Match(stderr.Bytes()) {
		t.Errorf("stderr = %q, want the one summary line", stderr.String())
	}
}
