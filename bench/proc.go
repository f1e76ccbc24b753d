package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// child is one finished process of a program under test: what it cost
// (wall, CPU and peak resident set, descendants included) and what it
// printed.
type child struct {
	Name      string  `json:"name"`
	WallMS    float64 `json:"wall_ms"`
	CPUMS     float64 `json:"cpu_ms"`
	MaxRSSKiB int64   `json:"max_rss_kib"`

	stdout, stderr []byte
	err            error
}

func (c child) wallS() float64 { return c.WallMS / 1e3 }
func (c child) cpuS() float64  { return c.CPUMS / 1e3 }
func (c child) rssMB() float64 { return float64(c.MaxRSSKiB) / 1024 }

// ops counts operations against the number attempted; the first few
// failure messages are kept for the report.
type ops struct {
	attempted, failed int
	msgs              []string
}

func (o *ops) fail(format string, a ...any) {
	o.failed++
	if len(o.msgs) < 8 {
		o.msgs = append(o.msgs, fmt.Sprintf(format, a...))
	}
}

// check counts one operation; it fails when err is non-nil.
func (o *ops) check(what string, err error) bool {
	o.attempted++
	if err != nil {
		o.fail("%s: %v", what, err)
		return false
	}
	return true
}

// childEnv is the environment every program under test runs in:
// GOMAXPROCS pinned to W and temporary files kept inside the scratch
// directory.
func (e *env) childEnv() []string {
	return append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.w), "TMPDIR="+e.scratch)
}

// run executes one program under test to completion under a deadline.
// A child that outlives the deadline is killed and reported as an
// error, so a hang is a failed operation and never a hung benchmark.
func (e *env) run(ctx context.Context, timeout time.Duration, bin string, args ...string) child {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	path := bin
	if !filepath.IsAbs(bin) {
		if _, err := os.Stat(filepath.Join(e.bin, bin)); err == nil {
			path = filepath.Join(e.bin, bin)
		}
	}
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.Env = e.childEnv()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.WaitDelay = 2 * time.Second
	start := time.Now()
	err := cmd.Run()
	c := child{Name: filepath.Base(bin), WallMS: float64(time.Since(start)) / 1e6}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		err = fmt.Errorf("deadline of %v exceeded", timeout)
	} else if err != nil {
		err = fmt.Errorf("%w: %s", err, lastLine(stderr.Bytes()))
	}
	c.stdout, c.stderr, c.err = stdout.Bytes(), stderr.Bytes(), err
	c.setUsage(cmd.ProcessState)
	return c
}

func (c *child) setUsage(ps *os.ProcessState) {
	if ps == nil {
		return
	}
	c.CPUMS = float64(ps.UserTime()+ps.SystemTime()) / 1e6
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		c.MaxRSSKiB = int64(ru.Maxrss) // KiB on Linux
	}
}

func lastLine(b []byte) string {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		b = b[i+1:]
	}
	return string(b)
}
