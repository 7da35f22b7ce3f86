package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one `sti serve -http` child.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	started time.Time
	log     *os.File
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed again before the child binds it; nothing else on the sandbox
// competes for ports in between.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts sti serve on prog; dataDir != "" selects the durable
// tier with the benchmark's stated flush policy (no -fsync).
func startServer(e *env, work, prog, dataDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"serve", prog, "-http", addr, "-log-level", "warn"}
	if dataDir != "" {
		args = append(args, "-data", dataDir, "-snapshot-every", strconv.Itoa(snapshotEvery))
	}
	logf, err := os.Create(filepath.Join(work, fmt.Sprintf("serve-%d.log", port)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.sti, args...)
	cmd.Dir = work
	cmd.Env = childEnv()
	cmd.Stderr = logf
	// Stdin stays closed (os/exec gives the child /dev/null), which is how a
	// daemonized sti serve runs: HTTP only.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, started: time.Now()}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	return s, nil
}

// stop ends the child — SIGKILL when kill is set, else SIGTERM for the
// graceful path — waits for it, and returns what it used.
func (s *server) stop(kill bool) (usage, error) {
	defer s.log.Close()
	rssMB, _ := peakRSS(s.cmd.Process.Pid)
	sig := syscall.SIGTERM
	if kill {
		sig = syscall.SIGKILL
	}
	if err := s.cmd.Process.Signal(sig); err != nil {
		return usage{}, err
	}
	err := s.cmd.Wait()
	if kill {
		err = nil // "signal: killed" is the expected exit
	}
	return usageOf(s.cmd.ProcessState, time.Since(s.started), rssMB), err
}

// client is one closed-loop connection: its own transport, so the writer and
// the reader never share a socket.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body; the returned duration runs
// from before the request is written until the body has been read.
func (c *client) do(method, path, body string) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dt := time.Since(t0)
	if err != nil {
		return nil, dt, err
	}
	if resp.StatusCode != http.StatusOK {
		return raw, dt, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return raw, dt, nil
}

// waitReady polls /readyz until it answers 200.
func (c *client) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, _, err := c.do("GET", "/readyz", ""); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v: %v", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *client) apply(a apply) (time.Duration, error) {
	_, dt, err := c.do("POST", "/apply", a.body())
	return dt, err
}

// query runs one prefix query and checks the answer against what must hold
// whatever the writer has applied: every row matches the pattern and the
// answer is no longer than the query's bound.
func (c *client) query(q query) (time.Duration, error) {
	v := url.Values{"rel": {q.rel}, "p": q.pattern}
	raw, dt, err := c.do("GET", "/query?"+v.Encode(), "")
	if err != nil {
		return dt, err
	}
	var rows [][]string
	if err := json.Unmarshal(raw, &rows); err != nil {
		return dt, fmt.Errorf("query %s: %v", q.rel, err)
	}
	if len(rows) > q.maxRows {
		return dt, fmt.Errorf("query %s%v: %d rows, at most %d possible", q.rel, q.pattern, len(rows), q.maxRows)
	}
	for _, r := range rows {
		for i, p := range q.pattern {
			if p != "_" && (i >= len(r) || r[i] != p) {
				return dt, fmt.Errorf("query %s%v: row %v does not match", q.rel, q.pattern, r)
			}
		}
	}
	return dt, nil
}

// observe reads the server's final state the way a client can: relation
// sizes and the fallback count from /stats, and a checksum of every written
// relation from a full /query.
func (c *client) observe(want *expect) (sizes map[string]int, sums map[string]string, fallbacks int, err error) {
	raw, _, err := c.do("GET", "/stats", "")
	if err != nil {
		return nil, nil, 0, err
	}
	var st struct {
		Fallbacks int            `json:"applies_fallback"`
		Relations map[string]int `json:"relations"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, nil, 0, fmt.Errorf("/stats: %v", err)
	}
	sums = map[string]string{}
	for rel := range want.Checksums {
		raw, _, err := c.do("GET", "/query?rel="+url.QueryEscape(rel), "")
		if err != nil {
			return nil, nil, 0, err
		}
		var rows [][]string
		if err := json.Unmarshal(raw, &rows); err != nil {
			return nil, nil, 0, fmt.Errorf("query %s: %v", rel, err)
		}
		var sum uint64
		for _, r := range rows {
			sum += rowSum(strings.Join(r, "\t"))
		}
		sums[rel] = sumHex(sum)
	}
	return st.Relations, sums, st.Fallbacks, nil
}

// preload sends the base EDB through /apply in chunks of preloadChunk facts.
func (c *client) preload(d *dataset, res *result) error {
	for _, a := range preloadApplies(d, preloadChunk) {
		res.attempted++
		if _, err := c.apply(a); err != nil {
			return err
		}
	}
	return nil
}

// classLat collects client-side latencies in milliseconds per request class.
type classLat struct{ insert, delete, query []float64 }

// replay runs the scripted phase on two closed-loop connections. The writer
// sends the script. The reader sends one query for every apply the writer has
// had answered, cycling through the query list, so it reads while the next
// applies run and the phase as a whole is a fixed amount of work: as many
// queries as applies, whatever either costs. (A reader that loops freely
// until the writer is done sends fewer queries the slower they get, which
// hides their cost from wall_s and cpu_s.) The phase ends when both are done.
func replay(base string, script []apply, queries []query, res *result) (lat classLat, wall, readerLag time.Duration) {
	type tally struct {
		attempted, failed int
		problems          []string
	}
	fail := func(t *tally, err error) {
		t.failed++
		if len(t.problems) < 5 {
			t.problems = append(t.problems, err.Error())
		}
	}
	due := make(chan struct{}, len(script)) // never blocks the writer
	readerDone := make(chan tally)
	go func() {
		c := newClient(base)
		defer c.close()
		var t tally
		for range due {
			dt, err := c.query(queries[t.attempted%len(queries)])
			t.attempted++
			if err != nil {
				fail(&t, err)
				continue
			}
			lat.query = append(lat.query, ms(dt))
		}
		readerDone <- t
	}()

	w := newClient(base)
	defer w.close()
	var wt tally
	t0 := time.Now()
	for _, a := range script {
		dt, err := w.apply(a)
		wt.attempted++
		switch {
		case err != nil:
			fail(&wt, err)
		case a.del:
			lat.delete = append(lat.delete, ms(dt))
		default:
			lat.insert = append(lat.insert, ms(dt))
		}
		due <- struct{}{}
	}
	close(due)
	writerWall := time.Since(t0)
	rt := <-readerDone
	wall = time.Since(t0)
	for _, t := range []tally{wt, rt} {
		res.attempted += t.attempted
		res.failed += t.failed
		res.problems = append(res.problems, t.problems...)
	}
	return lat, wall, wall - writerWall
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// verify compares the server's observable state with the expectation; every
// mismatch is a failed operation. noFallback also requires that no apply so
// far fell back to recomputation.
func verify(c *client, want *expect, when string, noFallback bool, res *result) {
	res.attempted++
	sizes, sums, fallbacks, err := c.observe(want)
	if err != nil {
		res.failed++
		res.problems = append(res.problems, when+": "+err.Error())
		return
	}
	diffs := want.diff(sizes, sums)
	if noFallback && fallbacks != 0 {
		diffs = append(diffs, fmt.Sprintf("%d applies fell back to recomputation", fallbacks))
	}
	if len(diffs) > 0 {
		res.failed++
		for _, d := range diffs {
			res.problems = append(res.problems, when+": "+d)
		}
	}
}

// runServe drives the daemon: start, wait for /readyz, preload the base (all
// of that is set-up, repeated sc.serveSetups times on fresh instances), then
// the scripted phase on the last instance, then the final-state check. The
// durable workload goes on to kill -9 the server, restart it on the same
// directory, time the restart until /readyz answers, and check the recovered
// state.
func runServe(e *env, w *workload, sc *scale, seed int64, seconds int) (*result, error) {
	work, err := e.workDir(w.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	prog := filepath.Join(work, w.program)
	if err := os.WriteFile(prog, []byte(w.source()), 0o644); err != nil {
		return nil, err
	}
	res := &result{workload: w.name}
	n := w.scriptLen(sc, seconds)
	d := w.gen(seed, sc, poolFor(n))
	script := buildScript(seed, d.pool, n)
	want, source, err := expected(w, sc, seed, seconds, finalFacts(d, script))
	if err != nil {
		return nil, err
	}
	res.note("expected results from the %s", source)

	var srv *server
	var dataDir string
	var setups []float64
	for i := 0; i < sc.serveSetups; i++ {
		if srv != nil {
			if _, err := srv.stop(true); err != nil {
				return nil, err
			}
		}
		if w.durable {
			dataDir = filepath.Join(work, fmt.Sprintf("data-%d", i))
		}
		if srv, err = startServer(e, work, prog, dataDir); err != nil {
			return nil, err
		}
		c := newClient(srv.base)
		err := c.waitReady(30 * time.Second)
		if err == nil {
			err = c.preload(d, res)
		}
		c.close()
		if err != nil {
			srv.stop(true)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(srv.started).Seconds())
	}

	lat, wall, lag := replay(srv.base, script, d.queries, res)
	c := newClient(srv.base)
	defer c.close()
	verify(c, want, "after the script", true, res)

	used, err := srv.stop(w.durable) // durable: kill -9; memory: graceful
	if err != nil {
		return nil, err
	}
	if w.durable {
		t0 := time.Now()
		if srv, err = startServer(e, work, prog, dataDir); err != nil {
			return nil, err
		}
		rc := newClient(srv.base)
		defer rc.close()
		if err := rc.waitReady(60 * time.Second); err != nil {
			srv.stop(true)
			return nil, fmt.Errorf("restart after kill -9: %w", err)
		}
		res.info("recovery_s", time.Since(t0).Seconds(), "s")
		// Recovery recomputes the IDB from the recovered EDB, which /stats
		// counts as one recomputation; only the scripted applies must all
		// have taken the incremental path.
		verify(rc, want, "after kill -9 and restart", false, res)
		recUsed, err := srv.stop(false)
		if err != nil {
			return nil, fmt.Errorf("graceful stop after recovery: %w", err)
		}
		res.info("recovery_rss_mb", recUsed.rssMB, "MB")
	}

	res.metric("setup_s", median(setups), "s")
	res.metric("wall_s", wall.Seconds(), "s")
	res.metric("cpu_s", used.cpuS, "s")
	res.metric("peak_rss_mb", used.rssMB, "MB")
	res.info("applies", float64(len(script)), "count")
	res.info("applies_per_s", float64(len(script))/wall.Seconds(), "1/s")
	// How long the reader ran on after the last apply, and the share of the
	// phase it spent waiting for an answer: near 1, it and not the writer
	// sets wall_s.
	res.info("reader_lag_s", lag.Seconds(), "s")
	res.info("reader_busy_share", sum(lat.query)/1e3/wall.Seconds(), "share")
	for _, cl := range []struct {
		name string
		xs   []float64
	}{{"insert", lat.insert}, {"delete", lat.delete}, {"query", lat.query}} {
		p95, beyond := percentile(cl.xs, 0.95)
		res.info(cl.name+"_samples", float64(len(cl.xs)), "count")
		res.info(cl.name+"_p50_ms", median(cl.xs), "ms")
		res.info(cl.name+"_p95_ms", p95, "ms")
		res.info(cl.name+"_beyond_p95", float64(beyond), "count")
	}
	return res, nil
}
