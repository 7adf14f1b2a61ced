package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// Linux starts a child's ru_maxrss at the peak RSS of the process that
// spawned it, so a child spawned by the benchmark itself — which holds
// corpora and oracles — would never report less than the benchmark's
// own tens of megabytes. CLI ops are therefore spawned by a spawner: a
// second process of this binary that does nothing else and stays a few
// megabytes small. It takes requests on its standard input and answers
// on its standard output, one JSON object each.

// A spawnRequest asks for one run of argv with its standard output
// written to the file Stdout.
type spawnRequest struct {
	Argv   []string `json:"argv"`
	Stdout string   `json:"stdout"`
}

// A spawnReply reports the run: wall time from Start to Wait, user plus
// system CPU time and peak RSS from the child's rusage.
type spawnReply struct {
	WallNs   int64 `json:"wall_ns"`
	CPUNs    int64 `json:"cpu_ns"`
	MaxRSSKB int64 `json:"max_rss_kb"`
	// SelfRSSKB is the spawner's own peak RSS, the floor under MaxRSSKB.
	SelfRSSKB int64  `json:"self_rss_kb"`
	Err       string `json:"err,omitempty"`
}

// spawnerMain is the spawner process: it serves requests until its
// standard input ends.
func spawnerMain() error {
	dec, enc := json.NewDecoder(os.Stdin), json.NewEncoder(os.Stdout)
	for {
		var req spawnRequest
		if err := dec.Decode(&req); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		reply := spawnOne(req)
		if err := enc.Encode(reply); err != nil {
			return err
		}
	}
}

func spawnOne(req spawnRequest) (reply spawnReply) {
	fail := func(err error) spawnReply {
		reply.Err = err.Error()
		return reply
	}
	out, err := os.Create(req.Stdout)
	if err != nil {
		return fail(err)
	}
	defer out.Close()
	var stderr bytes.Buffer
	cmd := exec.Command(req.Argv[0], req.Argv[1:]...)
	cmd.Stdout, cmd.Stderr = out, &stderr
	t0 := time.Now()
	err = cmd.Run()
	reply.WallNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return fail(fmt.Errorf("%w: %s", err, bytes.TrimSpace(stderr.Bytes())))
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return fail(fmt.Errorf("no rusage on this platform"))
	}
	reply.CPUNs = ru.Utime.Nano() + ru.Stime.Nano()
	reply.MaxRSSKB = ru.Maxrss
	if reply.SelfRSSKB, err = peakRSSKB(os.Getpid()); err != nil {
		return fail(err)
	}
	return reply
}

// A spawner is the benchmark's handle on its spawner process.
type spawner struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
}

func startSpawner() (*spawner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &spawner{cmd: exec.Command(self, "-spawner")}
	s.cmd.Stderr = os.Stderr
	if s.stdin, err = s.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start the spawner: %w", err)
	}
	s.enc, s.dec = json.NewEncoder(s.stdin), json.NewDecoder(stdout)
	return s, nil
}

// run has the spawner run argv once.
func (s *spawner) run(argv []string, stdout string) (spawnReply, error) {
	var reply spawnReply
	if err := s.enc.Encode(spawnRequest{Argv: argv, Stdout: stdout}); err != nil {
		return reply, fmt.Errorf("spawner: %w", err)
	}
	if err := s.dec.Decode(&reply); err != nil {
		return reply, fmt.Errorf("spawner: %w", err)
	}
	if reply.Err != "" {
		return reply, fmt.Errorf("%s: %s", argv[0], reply.Err)
	}
	return reply, nil
}

// close ends the spawner process and waits for it.
func (s *spawner) close() error {
	if err := s.stdin.Close(); err != nil {
		return err
	}
	return s.cmd.Wait()
}
