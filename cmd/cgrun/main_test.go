package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for cgrun: re-exec'd with
// CGRUN_TEST_MAIN=1 it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("CGRUN_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsNonPositiveSize: -size 0 and -size -1 are bad command
// lines, refused with exit 2 before anything runs or prints.
func TestRejectsNonPositiveSize(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []string{"0", "-1"} {
		cmd := exec.Command(exe, "-workload", "compress", "-size", size)
		cmd.Env = append(os.Environ(), "CGRUN_TEST_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("cgrun -size %s: err = %v, want exit 2", size, err)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "-size "+size) {
			t.Errorf("cgrun -size %s printed\n%s\nand on stderr\n%s", size, stdout.String(), stderr.String())
		}
	}
}
