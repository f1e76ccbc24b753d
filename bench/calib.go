package main

import (
	"sync"
	"time"
)

// The host this benchmark was defined on is a shared 2-vCPU VM whose
// speed drifts by 20–40 % over tens of minutes (neighbours' load: user
// time drifts with wall time, steal stays near zero). Two sets of runs
// of one commit taken twenty minutes apart then differ by more than any
// regression worth catching. So every reported time is scaled by how
// fast the host was while it was measured: between operations the
// benchmark times a fixed reference loop of its own (no code of the repo
// in it), and
//
//	reported seconds = measured seconds × calibRefSeconds / median(loop seconds)
//
// i.e. seconds at the reference host speed. The unscaled median and the
// loop's own time are reported beside it (wall_raw_s, calib_s).
//
// The loop was chosen by measurement, over twelve minutes of alternating
// it with cgsweep, cgrun and a resumed sweep: a cache-missing loop over
// 16 MiB and a pure-ALU loop each swing two to three times as far as
// the programs do (log-log slope of program time on loop time 0.2–0.5),
// so dividing by them adds noise; random read-modify-writes over an
// L2-sized buffer move one for one with the programs (slope 0.9–1.5)
// and cut the spread of block medians (sweep 7.1 % → 5.5 %, resume
// 11.7 % → 7.9 %, cgrun 11.4 % → 10.8 %).

// calibRefSeconds is the reference loop's time on the dev host in its
// quiet phase (the phase in which the default sweep takes 1.16 s), so a
// reported second is a second of that host.
const calibRefSeconds = 0.073

const (
	calibWords = 32 << 10 // 256 KiB per goroutine: L2-resident
	calibIters = 30_000_000
	calibEvery = time.Second
)

// calibrator samples the reference loop during one workload's run.
type calibrator struct {
	bufs    [][]uint64 // one per goroutine, W of them: the loop loads every CPU the children may use
	last    time.Time
	samples []float64
}

func newCalibrator(w int) *calibrator {
	c := &calibrator{bufs: make([][]uint64, w)}
	for i := range c.bufs {
		c.bufs[i] = make([]uint64, calibWords)
	}
	c.sample() // the first pass faults the buffers in and warms the caches; it is not a sample
	c.samples = nil
	return c
}

// spin is one goroutine's share of the loop: xorshift-driven random
// read-modify-writes over its buffer.
func spin(buf []uint64) uint64 {
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calibWords - 1)
		acc += buf[j]
		buf[j] = acc ^ x
	}
	return acc
}

// sample times the loop once.
func (c *calibrator) sample() {
	var wg sync.WaitGroup
	start := time.Now()
	for _, buf := range c.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spin(buf)
		}()
	}
	wg.Wait()
	c.last = time.Now()
	c.samples = append(c.samples, c.last.Sub(start).Seconds())
}

// maybe samples the loop if the last sample is older than calibEvery.
// Workloads call it between operations, never during one.
func (c *calibrator) maybe() {
	if time.Since(c.last) >= calibEvery {
		c.sample()
	}
}

// factor converts measured seconds to seconds at the reference speed.
func (c *calibrator) factor() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return calibRefSeconds / median(c.samples)
}

// scale applies the factor to a summary.
func (c *calibrator) scale(s summary) summary {
	f := c.factor()
	s.Median, s.Q1, s.Q3 = s.Median*f, s.Q1*f, s.Q3*f
	return s
}
