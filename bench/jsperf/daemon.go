package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The request script of one daemon op: scriptPosts ingest requests over
// one keep-alive connection, cycling the corpus bodies from the first,
// with a schema read after every readEvery-th. Every op sends the same
// bytes.
const (
	scriptPosts = 64
	readEvery   = 8
	collection  = "bench"
)

// A daemon is one jsinferd subprocess with default flags on a loopback
// port of the kernel's choosing.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	client  *http.Client
	drained chan struct{} // closed when stderr reaches EOF
	boot    time.Duration // spawn to the first 200 from /healthz
}

// startDaemon spawns bin and returns once /healthz answers 200.
func startDaemon(bin string) (*daemon, error) {
	d := &daemon{
		cmd:     exec.Command(bin, "-addr", "127.0.0.1:0"),
		drained: make(chan struct{}),
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start jsinferd: %w", err)
	}
	// The daemon logs one line per request; the pipe is drained for the
	// daemon's whole life so that logging never blocks it.
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			if found {
				continue
			}
			if a := listenAddr(sc.Text()); a != "" {
				found = true
				addr <- a
			}
		}
		if !found {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			_ = d.stop()
			return nil, fmt.Errorf("jsinferd exited before it listened")
		}
		d.base = "http://" + a
	case <-time.After(20 * time.Second):
		_ = d.stop()
		return nil, fmt.Errorf("jsinferd did not listen within 20s")
	}
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 20*time.Second {
			_ = d.stop()
			return nil, fmt.Errorf("jsinferd never became healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.boot = time.Since(t0)
	return d, nil
}

// listenAddr extracts host:port from the daemon's "listening" log line.
func listenAddr(line string) string {
	if !strings.Contains(line, "msg=listening") {
		return ""
	}
	for _, f := range strings.Fields(line) {
		if a, ok := strings.CutPrefix(f, "addr="); ok {
			return a
		}
	}
	return ""
}

// stop asks the daemon to shut down and waits until it has exited.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	err := d.cmd.Wait()
	if err != nil && d.cmd.ProcessState != nil && d.cmd.ProcessState.Exited() && d.cmd.ProcessState.ExitCode() == 0 {
		err = nil
	}
	return err
}

// cpu returns the on-CPU time of all the daemon's threads so far, from
// the scheduler's per-thread accounting.
func (d *daemon) cpu() (time.Duration, error) {
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", d.cmd.Process.Pid)
	}
	var total int64
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// peakRSSKB returns the daemon's resident-set high-water mark.
func (d *daemon) peakRSSKB() (int64, error) { return peakRSSKB(d.cmd.Process.Pid) }

// peakRSSKB returns the resident-set high-water mark of a live process.
func peakRSSKB(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// do sends one request and returns the response body. Any status
// outside 2xx is an error. rec, when not nil, receives the request as a
// span.
func (d *daemon) do(ctx context.Context, rec *recorder, span, method, path string, b *body) ([]byte, error) {
	var rd io.Reader
	if b != nil {
		rd = bytes.NewReader(b.wire)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	if b != nil && b.gzip {
		req.Header.Set("Content-Encoding", "gzip")
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rec != nil {
		rec.add(span, t0, time.Since(t0))
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

const (
	ingestPath = "/v1/collections/" + collection + "/ingest"
	schemaPath = "/v1/collections/" + collection + "/schema"
)

// script runs one op. When want is not empty every schema read must
// return exactly want; that holds from the second op on, once the
// collection has seen every body.
func (d *daemon) script(ctx context.Context, rec *recorder, c *corpus, want string) error {
	for i := 0; i < scriptPosts; i++ {
		if _, err := d.do(ctx, rec, "jsinferd.post", http.MethodPost, ingestPath, &c.bodies[i%len(c.bodies)]); err != nil {
			return err
		}
		if (i+1)%readEvery != 0 {
			continue
		}
		got, err := d.do(ctx, rec, "jsinferd.get_schema", http.MethodGet, schemaPath, nil)
		if err != nil {
			return err
		}
		if want != "" && string(got) != want {
			return fmt.Errorf("schema read after POST %d differs from the oracle", i+1)
		}
	}
	return nil
}

// scriptBytes is the number of document bytes one op ingests.
func scriptBytes(c *corpus) int {
	n := 0
	for i := 0; i < scriptPosts; i++ {
		n += len(c.bodies[i%len(c.bodies)].raw)
	}
	return n
}
