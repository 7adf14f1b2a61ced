package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// env is where a run finds the programs under test and keeps its files.
type env struct {
	jsinfer, jsinferd string   // built binaries
	dir               string   // scratch directory of this run
	spawner           *spawner // spawns the CLI ops
}

// A fixture is the outcome of one set-up: everything the measured phase
// needs. close stops the daemon, if there is one.
type fixture struct {
	w      workload
	seed   int64
	corpus *corpus
	file   string // the corpus on disk
	oracle string // what jsinfer must print and jsinferd must serve
	daemon *daemon
	// opBytes is the number of input bytes one op processes.
	opBytes int
}

func (f *fixture) close() error {
	if f.daemon == nil {
		return nil
	}
	d := f.daemon
	f.daemon = nil
	return d.stop()
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// setUp performs the set-up sequence once and returns the fixture with
// the time each step took at the reference clock, summed.
func setUp(e *env, w workload, seed int64) (*fixture, float64, error) {
	f := &fixture{w: w, seed: seed, file: filepath.Join(e.dir, "corpus.ndjson")}
	var err error
	total := 0.0
	step := func(fn func() error) {
		if err == nil {
			total += timed(func() { err = fn() }).refSeconds()
		}
	}
	step(func() error {
		f.corpus = generate(w.gen(seed), w.docs)
		f.opBytes = len(f.corpus.data)
		if !w.serve {
			return nil
		}
		if err := f.corpus.cutBodies(); err != nil {
			return err
		}
		f.opBytes = scriptBytes(f.corpus)
		return nil
	})
	step(func() error { return os.WriteFile(f.file, f.corpus.data, 0o644) })
	step(func() (err error) {
		f.oracle, err = f.corpus.oracle()
		return err
	})
	if w.serve {
		step(func() (err error) {
			if f.daemon, err = startDaemon(e.jsinferd); err != nil {
				return err
			}
			ctx := context.Background()
			if _, err := f.daemon.do(ctx, nil, "", http.MethodPut, "/v1/collections/"+collection, nil); err != nil {
				return err
			}
			// The warm-up op shows the collection every body, so from
			// here on every schema read must equal the oracle.
			return f.daemon.script(ctx, nil, f.corpus, "")
		})
	}
	if err != nil {
		_ = f.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return f, total, nil
}

// cliOp is one cold spawn of jsinfer over the corpus file, made by the
// spawner: wall from Start to Wait, CPU and peak RSS from the child's
// rusage. The output must equal the oracle byte for byte.
func (e *env) cliOp(f *fixture) (timing, int64, error) {
	argv := append(append([]string{e.jsinfer}, f.w.cliArgs()...), f.file)
	stdout := filepath.Join(e.dir, "stdout.txt")
	var reply spawnReply
	var err error
	t := timed(func() { reply, err = e.spawner.run(argv, stdout) })
	if err != nil {
		return t, 0, err
	}
	t.wall, t.cpu = time.Duration(reply.WallNs), time.Duration(reply.CPUNs)
	if reply.MaxRSSKB <= reply.SelfRSSKB {
		return t, 0, fmt.Errorf("jsinfer peak RSS %d kB is not above the spawner's own %d kB, which hides it", reply.MaxRSSKB, reply.SelfRSSKB)
	}
	got, err := os.ReadFile(stdout)
	if err != nil {
		return t, 0, err
	}
	if string(got) != f.oracle {
		return t, 0, fmt.Errorf("jsinfer output differs from the oracle (%d bytes, want %d)", len(got), len(f.oracle))
	}
	return t, reply.MaxRSSKB, nil
}

// serveOp is one request script against the daemon; CPU is what the
// daemon's threads spent on a CPU meanwhile. The daemon's peak RSS is
// read once, after the phase.
func serveOp(f *fixture, rec *recorder) (timing, int64, error) {
	cpu0, err := f.daemon.cpu()
	if err != nil {
		return timing{}, 0, err
	}
	t := timed(func() { err = f.daemon.script(context.Background(), rec, f.corpus, f.oracle) })
	if err != nil {
		return t, 0, err
	}
	cpu1, err := f.daemon.cpu()
	if err != nil {
		return t, 0, err
	}
	t.cpu = cpu1 - cpu0
	return t, 0, nil
}

// A phase is the outcome of a measured loop. Only ops that succeeded
// and whose output was correct have a timing.
type phase struct {
	attempted, failed int
	timings           []timing
	rssKB             []float64
	firstErr          error
}

// measure runs op one at a time — a closed loop of one client — until
// the time is up, or exactly ops times when ops is positive.
func measure(d time.Duration, ops int, op func() (timing, int64, error)) phase {
	var p phase
	deadline := time.Now().Add(d)
	for {
		if ops > 0 && p.attempted >= ops {
			break
		}
		if ops <= 0 && p.attempted > 0 && !time.Now().Before(deadline) {
			break
		}
		p.attempted++
		t, rss, err := op()
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
			}
		} else {
			p.timings = append(p.timings, t)
			p.rssKB = append(p.rssKB, float64(rss))
		}
	}
	return p
}

// wallMs is the wall time of every timing as measured, in ms.
func wallMs(ts []timing) []float64 {
	ms := make([]float64, len(ts))
	for i, t := range ts {
		ms[i] = t.wall.Seconds() * 1e3
	}
	return ms
}

// refWall and refCPU are the floor estimates, in seconds at the
// reference clock, of one op's wall and CPU time.
func (p phase) refWall() float64 { return floor(p.timings, timing.refSeconds) }
func (p phase) refCPU() float64  { return floor(p.timings, timing.refCPU) }

// mb is bytes in the unit every metric uses: 1 MB = 10^6 bytes.
func mb(bytes float64) float64 { return bytes / 1e6 }

// finalCheck verifies, after the measured phase of the daemon workload,
// that the served schema equals both the oracle and what jsinfer
// -stream prints for the corpus.
func (e *env) finalCheck(f *fixture) error {
	got, err := f.daemon.do(context.Background(), nil, "", http.MethodGet, schemaPath, nil)
	if err != nil {
		return err
	}
	if string(got) != f.oracle {
		return fmt.Errorf("served schema differs from the oracle after the measured phase")
	}
	_, _, err = e.cliOp(f)
	return err
}
