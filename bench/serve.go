package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/results"
	"repro/internal/serve"
)

// server is one cgserve process under test.
type server struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	start    time.Time
	watchdog *time.Timer

	stderr   bytes.Buffer  // written by the reader goroutine; read only after readDone
	readDone chan struct{} // closed when the server's stderr reaches EOF
}

// serverLife bounds a cgserve's lifetime: past it the process is
// killed and its stop reports a failed operation.
const serverLife = 150 * time.Second

// startServer launches cgserve on an ephemeral port over the given
// store directory and waits for its "serving on" line.
func (e *env) startServer(storeDir string) (*server, error) {
	cmd := exec.Command(filepath.Join(e.bin, "cgserve"), "-addr", "127.0.0.1:0", "-store", storeDir)
	cmd.Env = e.childEnv()
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, start: time.Now(), readDone: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s.watchdog = time.AfterFunc(serverLife, func() { cmd.Process.Kill() })
	addr := make(chan string, 1)
	go func() {
		defer close(s.readDone)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.stderr.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, "cgserve: serving on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	select {
	case s.base = <-addr:
		return s, nil
	case <-s.readDone:
	case <-time.After(20 * time.Second):
	}
	cmd.Process.Kill()
	<-s.readDone
	cmd.Wait()
	s.watchdog.Stop()
	return nil, fmt.Errorf("cgserve did not start: %s", lastLine(s.stderr.Bytes()))
}

// stop sends SIGTERM and waits for the drain: the server must finish
// accepted work, print its "drained, exiting" line and exit 0, so the
// drain is part of the workload.
func (s *server) stop() (child, error) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.readDone:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.readDone
	}
	err := s.cmd.Wait()
	s.watchdog.Stop()
	c := child{Name: "cgserve", WallMS: float64(time.Since(s.start)) / 1e6}
	c.setUsage(s.cmd.ProcessState)
	c.stderr = s.stderr.Bytes()
	if err != nil {
		return c, fmt.Errorf("cgserve exited: %w: %s", err, lastLine(c.stderr))
	}
	if lastLine(c.stderr) != "cgserve: drained, exiting" {
		return c, fmt.Errorf("cgserve exited without draining: %q", lastLine(c.stderr))
	}
	return c, nil
}

// newHTTPClient returns a client that keeps exactly one connection, so
// a workload's connection count is its client count.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   childTimeout,
	}
}

// postFigs POSTs the profile's figure sweep and checks the reassembled
// stream against the sweep golden.
func (e *env) postFigs(hc *http.Client, base, client string) (serve.DoneStats, time.Duration, error) {
	var buf bytes.Buffer
	start := time.Now()
	stats, err := (&serve.Client{Base: base, HTTP: hc}).Sweep(serve.Spec{Client: client, Figs: e.prof.figs}, &buf)
	elapsed := time.Since(start)
	if err == nil && !bytes.Equal(buf.Bytes(), e.gold.sweep) {
		err = fmt.Errorf("reassembled figure stream differs from the sweep golden")
	}
	return stats, elapsed, err
}

// postCells POSTs the Cells matrix and checks every outcome line
// against the matrix golden.
func (e *env) postCells(hc *http.Client, base string, rep int) (serve.DoneStats, time.Duration, error) {
	spec := e.cellsSpec(rep)
	var buf bytes.Buffer
	start := time.Now()
	stats, err := (&serve.Client{Base: base, HTTP: hc}).Sweep(spec, &buf)
	elapsed := time.Since(start)
	if err != nil {
		return stats, elapsed, err
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != len(spec.Cells) {
		return stats, elapsed, fmt.Errorf("Cells matrix returned %d outcomes, want %d", len(lines), len(spec.Cells))
	}
	for i, line := range lines {
		o, err := results.Decode(line)
		if err != nil {
			return stats, elapsed, err
		}
		key, err := results.Key(spec.Cells[i].Job())
		if err != nil {
			return stats, elapsed, err
		}
		if got := reduceOutcome(o); got != e.gold.cells[key] {
			return stats, elapsed, fmt.Errorf("Cells outcome %d (%s) differs from the golden", i, key)
		}
	}
	return stats, elapsed, nil
}

// getCell fetches one stored cell. A 200 must decode to the cell the
// key names and carry the key's hash as its ETag; a conditional GET
// must answer 304.
func getCell(hc *http.Client, base string, g cellGet) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/cell/"+url.PathEscape(g.key), nil)
	if err != nil {
		return 0, err
	}
	etag := `"` + results.KeyHash(g.key) + `"`
	if g.conditional {
		req.Header.Set("If-None-Match", etag)
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		return elapsed, err
	}
	if got := resp.Header.Get("ETag"); got != etag {
		return elapsed, fmt.Errorf("GET /cell ETag %s, want %s", got, etag)
	}
	if g.conditional {
		if resp.StatusCode != http.StatusNotModified {
			return elapsed, fmt.Errorf("conditional GET /cell answered %s", resp.Status)
		}
		return elapsed, nil
	}
	if resp.StatusCode != http.StatusOK {
		return elapsed, fmt.Errorf("GET /cell answered %s", resp.Status)
	}
	o, err := results.Decode(body)
	if err != nil {
		return elapsed, err
	}
	if back, err := results.Key(o.Job); err != nil || back != g.key {
		return elapsed, fmt.Errorf("GET /cell %q returned cell %q", g.key, back)
	}
	return elapsed, nil
}

// warmIterations is how many times each client repeats the warm loop's
// iteration in one server lifetime.
const warmIterations = 100

// lifetime is what one server lifetime measured.
type lifetime struct {
	figs, matrix time.Duration     // the cold phases
	done         []serve.DoneStats // the figure clients' terminal stats
	// Client-side latencies of the warm loop.
	sweepMS, getUS, get304US []float64
	srv                      child
}

// serveOnce runs one fresh cgserve through its whole life:
//
//   - cold_figs: every client POSTs the figure sweep at once
//     (overlapping grids: in-flight dedup plus the store; exactly the
//     distinct cells may be computed across clients);
//   - cold_matrix: one client POSTs the Cells matrix, whose rows' tapes
//     the figures already recorded;
//   - warm: each client repeats warmIterations times [POST all figures
//     (nothing may be computed); GET a seeded sample of cells];
//   - SIGTERM, with the drain asserted.
func (e *env) serveOnce(ctx context.Context, o *ops, rep int) (lt lifetime, ok bool) {
	store := filepath.Join(e.scratch, fmt.Sprintf("serve-%d", rep))
	defer os.RemoveAll(store)
	srv, err := e.startServer(store)
	if !o.check("cgserve start", err) {
		return lt, false
	}
	n := e.clients()
	clients := make([]*http.Client, n)
	for c := range clients {
		clients[c] = newHTTPClient()
	}
	// each runs fn for every client at once and waits for all of them.
	each := func(fn func(c int)) {
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(c)
			}()
		}
		wg.Wait()
	}
	name := func(c int) string { return fmt.Sprintf("c%d", c) }

	ok = true
	lt.done = make([]serve.DoneStats, n)
	errs := make([]error, n)
	start := time.Now()
	each(func(c int) { lt.done[c], _, errs[c] = e.postFigs(clients[c], srv.base, name(c)) })
	lt.figs = time.Since(start)
	var computed int64
	for c := range errs {
		ok = o.check("POST /sweep (cold figures)", errs[c]) && ok
		computed += lt.done[c].Computed
	}
	if ok && computed != int64(len(e.keys)) {
		o.fail("cold figures computed %d cells across clients, want exactly %d", computed, len(e.keys))
		ok = false
	}

	var st serve.DoneStats
	st, lt.matrix, err = e.postCells(clients[0], srv.base, rep)
	ok = o.check("POST /sweep (cold matrix)", err) && ok
	if err == nil && st.Computed != st.Cells {
		o.fail("cold matrix computed %d of %d cells", st.Computed, st.Cells)
		ok = false
	}

	// Each client owns its counters and samples; they are merged once
	// the loop is over.
	cos, lts := make([]ops, n), make([]lifetime, n)
	each(func(c int) {
		co, cl, hc := &cos[c], &lts[c], clients[c]
		for it := 0; it < warmIterations && ctx.Err() == nil; it++ {
			st, lat, err := e.postFigs(hc, srv.base, name(c))
			if err == nil && st.Computed != 0 {
				err = fmt.Errorf("warm sweep computed %d cells", st.Computed)
			}
			if co.check("POST /sweep (warm)", err) {
				cl.sweepMS = append(cl.sweepMS, float64(lat)/1e6)
			}
			for _, g := range getSample(e.seed, e.keys, c, rep*warmIterations+it) {
				lat, err := getCell(hc, srv.base, g)
				if !co.check("GET /cell", err) {
					continue
				}
				if g.conditional {
					cl.get304US = append(cl.get304US, float64(lat)/1e3)
				} else {
					cl.getUS = append(cl.getUS, float64(lat)/1e3)
				}
			}
		}
	})
	for c := range lts {
		o.attempted += cos[c].attempted
		o.failed += cos[c].failed
		o.msgs = append(o.msgs, cos[c].msgs...)
		lt.sweepMS = append(lt.sweepMS, lts[c].sweepMS...)
		lt.getUS = append(lt.getUS, lts[c].getUS...)
		lt.get304US = append(lt.get304US, lts[c].get304US...)
	}

	lt.srv, err = srv.stop()
	ok = o.check("cgserve drain", err) && ok
	return lt, ok
}

func runServeMixed(ctx context.Context, e *env, r *workloadResult) {
	var o ops
	var u usage
	var figs, matrix []float64
	var warm lifetime
	e.repeat(ctx, r, 3, func(i int, measured bool) {
		if !measured {
			e.serveOnce(ctx, &ops{}, i)
			return
		}
		lt, ok := e.serveOnce(ctx, &o, i)
		r.addChild(lt.srv)
		if !ok {
			return
		}
		figs = append(figs, lt.figs.Seconds())
		matrix = append(matrix, lt.matrix.Seconds())
		u.wall = append(u.wall, (lt.figs + lt.matrix).Seconds())
		u.cpu = append(u.cpu, lt.srv.cpuS())
		u.rss = append(u.rss, lt.srv.rssMB())
		warm.sweepMS = append(warm.sweepMS, lt.sweepMS...)
		warm.getUS = append(warm.getUS, lt.getUS...)
		warm.get304US = append(warm.get304US, lt.get304US...)
	})
	u.report(r)
	r.putTime("serve_cold_figs_s", summarize(figs))
	r.putTime("serve_cold_matrix_s", summarize(matrix))
	r.putTime("serve_warm_sweep_ms", summarize(warm.sweepMS))
	r.putTime("serve_cell_get_us", summarize(warm.getUS))
	r.putTime("serve_cell_304_us", summarize(warm.get304US))
	r.putTail("serve_warm_sweep_tail_ms", warm.sweepMS)
	r.putTail("serve_cell_get_tail_us", warm.getUS)
	r.addOps(&o)
}
