// Command jsperf is the repository's benchmark: it measures jsinfer and
// jsinferd from outside, as their users run them, and times the layers
// underneath in process. See bench/README.md.
//
//	go run -C bench ./jsperf --workload tweets_seq --seed 1 --seconds 25 --trace 0
//	go run -C bench ./jsperf --workload tweets_seq --seed 1 --seconds 25 --trace 1
//	go run -C bench ./jsperf -workload all -runs 5 -set a -out bench/out/sets.json
//	go run -C bench ./jsperf -compare old.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints on its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a run as kept in a result-set file.
type record struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Trace        bool   `json:"trace"`
	Set          string `json:"set,omitempty"`
	CorpusSHA256 string `json:"corpus_sha256"`
	result
}

// hostInfo says where a result set was measured.
type hostInfo struct {
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
}

// resultSet is the content of a result-set file.
type resultSet struct {
	Host hostInfo `json:"host"`
	Runs []record `json:"runs"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jsperf:", err)
		os.Exit(1)
	}
}

// errFailedOps makes the command exit non-zero after the result line.
var errFailedOps = errors.New("operations failed or outputs were wrong")

func run(args []string) error {
	if len(args) == 1 && args[0] == "-spawner" {
		return spawnerMain()
	}
	fs := flag.NewFlagSet("jsperf", flag.ContinueOnError)
	var (
		names   = fs.String("workload", "", "workload to run: a name, a comma-separated list, or all")
		seed    = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds = fs.Float64("seconds", 25, "length of the measured phase")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced in-process run")
		ops     = fs.Int("ops", 0, "run exactly this many ops per measured phase instead of for -seconds")
		reps    = fs.Int("reps", 0, "with -trace 1: repeat every layer exactly this many times")
		runs    = fs.Int("runs", 1, "runs per workload, each with the next seed; workloads are interleaved in rounds")
		out     = fs.String("out", "", "append every run to this result-set file")
		set     = fs.String("set", "", "label the appended runs, for -compare file#label")
		bin     = fs.String("bin", "", "directory with prebuilt jsinfer and jsinferd; default: build them")
		outDir  = fs.String("dir", "", "directory for built binaries, corpora and span files; default: bench/out under the root")
		compare = fs.Bool("compare", false, "compare two result sets: jsperf -compare old.json[#label] new.json[#label]")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result-set files")
		}
		return compareFiles(os.Stdout, root, fs.Arg(0), fs.Arg(1))
	}
	var selected []workload
	for _, name := range strings.Split(*names, ",") {
		if name == "all" {
			selected = append(selected, workloads...)
		} else if w, ok := findWorkload(name); ok {
			selected = append(selected, w)
		} else {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, "bench", "out")
	}
	if *bin == "" {
		*bin = filepath.Join(*outDir, "bin")
		if err := build(root, *bin); err != nil {
			return err
		}
	}
	cfg := runConfig{seconds: *seconds, trace: *trace != 0, ops: *ops, reps: *reps}
	failed := false
	for r := 0; r < *runs; r++ {
		for _, w := range selected {
			e := &env{
				jsinfer:  filepath.Join(*bin, "jsinfer"),
				jsinferd: filepath.Join(*bin, "jsinferd"),
				dir:      filepath.Join(*outDir, w.name),
			}
			rec, err := runOnce(e, w, *seed+int64(r), cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			rec.Set = *set
			line, err := json.Marshal(rec.result)
			if err != nil {
				return err
			}
			fmt.Println(string(line))
			failed = failed || !rec.Correct
			if *out != "" {
				if err := appendRecord(*out, rec); err != nil {
					return err
				}
			}
		}
	}
	if failed {
		return errFailedOps
	}
	return nil
}

// findRoot walks up from the working directory to BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in any parent of the working directory")
		}
		dir = parent
	}
}

// build compiles the programs under test from the checkout.
func build(root, binDir string) error {
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "repro/cmd/jsinfer", "repro/cmd/jsinferd")
	cmd.Dir = root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w: %s", err, outp)
	}
	return nil
}

type runConfig struct {
	seconds float64
	trace   bool
	ops     int
	reps    int
}

// runOnce is one run of one workload: set-up, measured phase, checks.
// It prints the diagnostics; the caller prints the result line.
func runOnce(e *env, w workload, seed int64, cfg runConfig) (record, error) {
	rec := record{Workload: w.name, Seed: seed, Trace: cfg.trace}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return rec, err
	}
	var err error
	if e.spawner, err = startSpawner(); err != nil {
		return rec, err
	}
	defer e.spawner.close()
	var f *fixture
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return rec, err
			}
		}
		var s float64
		if f, s, err = setUp(e, w, seed); err != nil {
			return rec, err
		}
		setups = append(setups, s)
	}
	defer f.close()
	rec.CorpusSHA256 = f.corpus.sha256
	fmt.Printf("# %s seed=%d trace=%v docs=%d corpus_bytes=%d op_bytes=%d corpus_sha256=%s\n",
		w.name, seed, cfg.trace, w.docs, len(f.corpus.data), f.opBytes, f.corpus.sha256)
	fmt.Printf("# setup_s repetitions at the reference clock: %.4f\n", setups)
	if cfg.trace {
		err = traced(e, f, cfg, &rec)
	} else {
		err = endToEnd(e, f, cfg, median(setups), &rec)
	}
	if err != nil {
		return rec, err
	}
	rec.Correct = rec.Failed == 0
	printMetrics(rec.Metrics)
	return rec, nil
}

// traced is the per-layer run: it fills rec from the in-process layers
// and writes the spans.
func traced(e *env, f *fixture, cfg runConfig, rec *record) error {
	spans := newRecorder()
	l, err := runLayers(e, f, spans, cfg)
	if err != nil {
		return err
	}
	path := filepath.Join(filepath.Dir(e.dir), "trace_"+f.w.name+".json")
	if err := spans.write(path); err != nil {
		return err
	}
	for _, n := range l.notes {
		fmt.Println("#", n)
	}
	fmt.Printf("# %d spans written to %s\n", len(spans.spans), path)
	rec.Metrics = l.out
	rec.Attempted, rec.Failed = l.attempted, l.failed
	if l.fail != nil {
		fmt.Fprintln(os.Stderr, "jsperf: check failed:", l.fail)
		rec.Failed = max(rec.Failed, 1)
	}
	return nil
}

// endToEnd is the measured phase with tracing off: it fills rec with
// the end-to-end metrics.
func endToEnd(e *env, f *fixture, cfg runConfig, setupS float64, rec *record) error {
	op := func() (timing, int64, error) { return e.cliOp(f) }
	if f.w.serve {
		op = func() (timing, int64, error) { return serveOp(f, nil) }
	}
	p := measure(time.Duration(cfg.seconds*float64(time.Second)), cfg.ops, op)
	rss := median(p.rssKB)
	if f.w.serve {
		kb, err := f.daemon.peakRSSKB()
		if err != nil {
			return err
		}
		rss = float64(kb)
		if err := e.finalCheck(f); err != nil {
			p.attempted, p.failed = p.attempted+1, p.failed+1
			if p.firstErr == nil {
				p.firstErr = err
			}
		}
	}
	if err := f.close(); err != nil {
		return fmt.Errorf("stop jsinferd: %w", err)
	}
	rec.Attempted, rec.Failed = p.attempted, p.failed
	if p.firstErr != nil {
		fmt.Fprintln(os.Stderr, "jsperf: first failed op:", p.firstErr)
	}
	if len(p.timings) == 0 {
		return fmt.Errorf("no op succeeded: %w", p.firstErr)
	}
	opMB := mb(float64(f.opBytes))
	rec.Metrics = map[string]metric{
		"setup_s":         {setupS, "s"},
		"throughput_MBps": {opMB / p.refWall(), "MB/s"},
		"cpu_ms_per_MB":   {p.refCPU() * 1e3 / opMB, "ms/MB"},
		"peak_rss_MB":     {mb(rss * 1024), "MB"},
	}
	if err := writeOps(filepath.Join(filepath.Dir(e.dir), "ops_"+f.w.name+".json"), p.timings); err != nil {
		return err
	}
	asc := sorted(wallMs(p.timings))
	clk := make([]float64, len(p.timings))
	for i, t := range p.timings {
		clk[i] = t.stepNs
	}
	clk = sorted(clk)
	fmt.Printf("# ops_attempted=%d ops_failed=%d\n", p.attempted, p.failed)
	fmt.Printf("# op wall as measured: best %.2f ms, p50 %.2f ms, p95 %.2f ms; at the reference clock: %.2f ms\n",
		asc[0], percentile(asc, 0.5), percentile(asc, 0.95), p.refWall()*1e3)
	fmt.Printf("# clock, ns per chain step: min %.4f, median %.4f, max %.4f; reference %.4f\n",
		clk[0], percentile(clk, 0.5), clk[len(clk)-1], refStepNs)
	return nil
}

// writeOps stores every successful op of the measured phase as measured,
// with the clock it ran at, for whoever wants to look behind the
// estimates.
func writeOps(path string, ts []timing) error {
	type op struct {
		WallNs int64   `json:"wall_ns"`
		CPUNs  int64   `json:"cpu_ns"`
		StepNs float64 `json:"clock_step_ns"`
	}
	ops := make([]op, len(ts))
	for i, t := range ts {
		ops[i] = op{t.wall.Nanoseconds(), t.cpu.Nanoseconds(), t.stepNs}
	}
	data, err := json.Marshal(ops)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printMetrics prints every metric by name with its unit, one a line.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("# %-32s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// appendRecord adds rec to the result-set file at path, creating it
// with this host's description when it does not exist.
func appendRecord(path string, rec record) error {
	var rs resultSet
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &rs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case errors.Is(err, os.ErrNotExist):
		rs.Host = hostInfo{NProc: runtime.NumCPU(), CPUModel: cpuModel(), GoVersion: runtime.Version()}
	default:
		return err
	}
	rs.Runs = append(rs.Runs, rec)
	data, err = json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
