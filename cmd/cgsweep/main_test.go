package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
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

// TestServerRejectsLocalFlags: with -server, a flag that configures a
// local run is an error naming that flag, whatever value it was given —
// -debug-addr used to be accepted and dropped.
func TestServerRejectsLocalFlags(t *testing.T) {
	parse := func(args ...string) error {
		fs := flag.NewFlagSet("cgsweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		for name := range localOnly {
			fs.String(name, "", "")
		}
		for _, name := range []string{"figs", "server", "client"} {
			fs.String(name, "", "")
		}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return rejectLocalFlags(fs)
	}
	if err := parse("-server", "http://h", "-client", "a", "-figs", "4.1"); err != nil {
		t.Errorf("remote-only command line rejected: %v", err)
	}
	for _, local := range [][]string{
		{"-procs", "0"}, {"-workers", "2"}, {"-store", "d"}, {"-worker", "w"},
		{"-debug-addr", ":6060"},
	} {
		name := local[0]
		err := parse(append([]string{"-server", "http://h"}, local...)...)
		if err == nil || !strings.Contains(err.Error(), name+" configures a local run and cannot be combined with -server") {
			t.Errorf("%v with -server: err = %v, want one naming %s", local, err, name)
		}
	}
}
