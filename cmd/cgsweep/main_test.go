package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

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
