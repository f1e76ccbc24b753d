package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for both sides of a -procs
// run: re-exec'd with CGSWEEP_TEST_ROLE=sweep it is cgsweep, and the
// workers that run spawns inherit CGSWEEP_TEST_ROLE=exit and exit at
// once, before their hello.
func TestMain(m *testing.M) {
	switch os.Getenv("CGSWEEP_TEST_ROLE") {
	case "sweep":
		os.Setenv("CGSWEEP_TEST_ROLE", "exit")
		main()
		os.Exit(0)
	case "exit":
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDeadWorkersFailTheSweep: when every worker process exits at once,
// a -procs sweep over a store exits non-zero within 30 s and names the
// cause — it neither hangs waiting for a worker nor prints a short
// table as if it had finished.
func TestDeadWorkersFailTheSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fork/exec in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-procs", "2", "-store", t.TempDir(), "-worker", exe)
	cmd.Env = append(os.Environ(), "CGSWEEP_TEST_ROLE=sweep")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("cgsweep still running after 30 s with no worker alive; stderr:\n%s", stderr.String())
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("cgsweep with dead workers: err = %v, want a non-zero exit; stderr:\n%s", err, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "no worker left") || !strings.Contains(msg, "hello: EOF") {
		t.Fatalf("stderr does not name the cause:\n%s", msg)
	}
}
