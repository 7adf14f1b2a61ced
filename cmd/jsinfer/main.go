// Command jsinfer infers a schema from an NDJSON collection on stdin
// (or files given as arguments) with a selectable engine, and prints
// the result as a type expression (plain or counted), a JSON Schema document, or
// generated TypeScript/Swift declarations — written by
// core.Inference.WriteSchema, the writer jsinferd serves the same forms
// through.
//
// Usage:
//
//	jsinfer [-engine parametric-L|parametric-K|spark|skinfer]
//	        [-output type|counted|jsonschema|typescript|swift|report]
//	        [-workers N] [-simplify] [-chunk-bytes SIZE]
//	        [-precision] [-stats] [-stream]
//	        [-cpuprofile f] [-memprofile f] [file.ndjson ...]
//
// Every engine but Skinfer runs the streamed pipeline of
// docs/ARCHITECTURE.md — the input is never materialised, whatever its
// size: file arguments are one collection, read in turn through one run
// by core.InferSchemaStreamFilesWith (large regular files
// memory-mapped), stdin goes through core.InferSchemaStreamWith, and
// Spark's schema is projected from the parametric-K type. -workers, -chunk-bytes SIZE (64K, 4M, …) and -stats
// (the pipeline's flight recorder, on stderr) apply to every such run;
// -stream is accepted and ignored. The report has no precision column in
// a single pass; -precision fills it in a bounded-memory second pass over
// the file arguments. Skinfer alone materialises the collection
// (core.ReadCollection). The counted type of -output counted is
// parametric K's for Spark and Skinfer too, whose types carry no counts. Flag mistakes are rejected before any
// input is read. -cpuprofile and -memprofile write pprof profiles of the
// inference pass (the heap profile after it completes).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/genjson"
	"repro/internal/infer"
)

// cliFlags are jsinfer's flags. registerFlags defines them on a flag
// set of the caller's choosing so the README test can walk exactly the
// set run parses.
type cliFlags struct {
	engine, output, chunkBytes, cpuprofile, memprofile *string
	simplify, stream, precision, stats                 *bool
	workers                                            *int
}

func registerFlags(fs *flag.FlagSet) cliFlags {
	return cliFlags{
		engine:     fs.String("engine", "parametric-L", "inference engine: parametric-L, parametric-K, spark, skinfer"),
		output:     fs.String("output", "type", "output form: "+strings.Join(outputs, ", ")),
		simplify:   fs.Bool("simplify", false, "drop union alternatives subsumed by others"),
		workers:    fs.Int("workers", 0, "parallel inference workers (0 = GOMAXPROCS; above 1, every engine but skinfer)"),
		stream:     fs.Bool("stream", false, "no effect: every engine but skinfer always streams (kept for scripts that pass it)"),
		precision:  fs.Bool("precision", false, "fill -output report's precision column in a second pass over the input files (every engine but skinfer)"),
		chunkBytes: fs.String("chunk-bytes", "", "the least byte length of the windows the input is cut into, at every worker count: a window ends at the first document end at or past SIZE — by default 4M at -workers 1, 256 documents otherwise — e.g. 8M (every engine but skinfer)"),
		stats:      fs.Bool("stats", false, "print pipeline stage stats to stderr after inference (every engine but skinfer; fuse and root_fuses are the registry's counters and read 0 here)"),
		cpuprofile: fs.String("cpuprofile", "", "write a CPU profile of the inference pass to this file"),
		memprofile: fs.String("memprofile", "", "write a heap profile (taken after inference) to this file"),
	}
}

// outputs are the forms -output selects: core.OutputForms, then report.
var outputs = append(core.FormNames(), "report")

var errNoInput = errors.New("no input documents")

func main() {
	deferFirstGC()
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// startHeap is the heap a run grows to before its first collection. A
// run is one pass whose heap the exit drops, so collecting it early is
// work no output uses. 32 MiB is the knee measured on the sparse corpus
// (10 000 records of 8 of 500 keys, a cold run on a 2-vCPU host): a
// start heap of 16, 32 or 64 MiB took a run from 146 ms at Go's 4 MiB
// to 138, 123 or 118 ms, at 55, 62 or 75 MB peak RSS. The Go compiler
// starts its own heap the same way (cmd/compile/internal/base's
// AdjustStartingHeap).
const startHeap = 32 << 20

// deferFirstGC raises GOGC so that the first collection waits for a heap
// of startHeap bytes, then hands pacing back to GOGC=100 once that
// collection has run. A GOGC set in the environment wins: deferFirstGC
// then does nothing. It is called from main, not run, so in-process
// tests keep Go's defaults.
func deferFirstGC() {
	if _, set := os.LookupEnv("GOGC"); set {
		return
	}
	goal := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(goal)
	if percent := 100 * startHeap / goal[0].Value.Uint64(); percent > 100 {
		debug.SetGCPercent(int(percent))
		// The sentinel is unreachable at once, so its finalizer runs
		// after the first cycle. It must be at least 16 bytes: smaller
		// pointer-free objects share a tiny-allocator block and may
		// never be finalized.
		runtime.SetFinalizer(new([16]byte), func(*[16]byte) { debug.SetGCPercent(100) })
	}
}

// run is the whole command on explicit arguments and streams, so a test
// can drive it; it returns the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jsinfer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := inferAndPrint(opt, fs.Args(), stdin, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "jsinfer:", err)
		return 1
	}
	return 0
}

// inferAndPrint is one invocation after flag parsing: validate, run the
// engine over the files (or stdin), print the selected output.
func inferAndPrint(opt cliFlags, files []string, stdin io.Reader, stdout, stderr io.Writer) (err error) {
	if *opt.cpuprofile != "" {
		f, err := os.Create(*opt.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *opt.memprofile != "" {
		defer func() {
			if err == nil {
				err = writeHeapProfile(*opt.memprofile)
			}
		}()
	}

	// Everything the flags alone decide is checked before any input is
	// read: a mistake must exit non-zero immediately, not after a
	// potentially huge inference pass (or, worse, be silently ignored).
	var eng core.Engine
	switch *opt.engine {
	case "parametric-L":
		eng = core.ParametricL
	case "parametric-K":
		eng = core.ParametricK
	case "spark":
		eng = core.Spark
	case "skinfer":
		eng = core.Skinfer
	default:
		return fmt.Errorf("unknown engine %q", *opt.engine)
	}
	if !slices.Contains(outputs, *opt.output) {
		return fmt.Errorf("unknown output %q", *opt.output)
	}
	var chunkTarget int
	if *opt.chunkBytes != "" {
		cb, err := genjson.ParseSize(*opt.chunkBytes)
		if err != nil {
			return fmt.Errorf("-chunk-bytes: %w", err)
		}
		chunkTarget = int(cb)
	}
	if err := validateStreamFlags(eng, *opt.workers, *opt.precision, *opt.stats, *opt.chunkBytes != "", *opt.output, len(files)); err != nil {
		return err
	}
	if *opt.output == "counted" && (eng == core.Spark || eng == core.Skinfer) {
		eng = core.ParametricK // their types carry no counts: the counted type is K's
	}

	var (
		result *core.Inference
		ndocs  int
	)
	if eng != core.Skinfer {
		var pstats *core.PipelineStats
		if *opt.stats {
			pstats = &core.PipelineStats{}
		}
		result, ndocs, err = streamInput(files, stdin, eng, core.StreamOptions{Workers: *opt.workers, ChunkBytes: chunkTarget, Stats: pstats})
		if pstats != nil {
			// Stats go to stderr even on an error exit: the partial
			// counters cover exactly the work done before the failure.
			gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
			metrics.Read(gc)
			printStats(stderr, pstats.Snapshot(), time.Duration(gc[0].Value.Float64()*float64(time.Second)), gc[1].Value.Uint64(), result.Size(), ndocs)
		}
		if err != nil {
			return err
		}
		if ndocs == 0 {
			return errNoInput
		}
		if *opt.precision {
			// The single pass cannot grade precision (the data is
			// gone); the explicit second pass over the files can.
			p, _, err := core.StreamPrecisionFiles(files, result.Type)
			if err != nil {
				return fmt.Errorf("precision pass: %w", err)
			}
			result.Precision = p
		}
	} else {
		docs, err := core.ReadCollection(files, stdin)
		if err != nil {
			return err
		}
		// Checked before inference: Skinfer cannot type an empty
		// collection.
		if ndocs = len(docs); ndocs == 0 {
			return errNoInput
		}
		if result, err = core.InferSchema(docs, eng); err != nil {
			return err
		}
	}
	if *opt.simplify {
		result.Simplify()
	}

	if *opt.output != "report" {
		return result.WriteSchema(stdout, *opt.output)
	}
	fmt.Fprintf(stdout, "engine:    %s\n", result.Engine)
	fmt.Fprintf(stdout, "documents: %d\n", ndocs)
	fmt.Fprintf(stdout, "size:      %d nodes\n", result.Size())
	if result.Precision >= 0 {
		fmt.Fprintf(stdout, "precision: %.3f\n", result.Precision)
	} else {
		fmt.Fprintf(stdout, "precision: n/a (streamed single pass; rerun with -precision and file arguments for a second pass)\n")
	}
	fmt.Fprint(stdout, "type:      ")
	return result.WriteSchema(stdout, "type")
}

func writeHeapProfile(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// validateStreamFlags rejects mistakes in the streamed pipeline's flags
// up front, before any input is read: -stats, -chunk-bytes, -precision
// and a -workers above 1 configure the pipeline every engine but Skinfer
// runs, so setting one for Skinfer (which runs on one worker) is a
// mistake rather than something to ignore; -precision re-reads the input
// for the report's precision column, so it needs the report output and
// re-readable file arguments.
func validateStreamFlags(eng core.Engine, workers int, precision, stats, chunkBytesSet bool, output string, nArgs int) error {
	if workers < 0 {
		return errors.New("-workers must be 0 (GOMAXPROCS) or more")
	}
	if eng == core.Skinfer && (precision || stats || chunkBytesSet) {
		return fmt.Errorf("-stats, -chunk-bytes and -precision apply to every engine but skinfer")
	}
	if eng == core.Skinfer && workers > 1 {
		return errors.New("-workers above 1 applies to every engine but skinfer")
	}
	if precision && output != "report" {
		return fmt.Errorf("-precision only affects -output report")
	}
	if precision && nArgs == 0 {
		return fmt.Errorf("-precision needs file arguments: stdin cannot be re-read")
	}
	return nil
}

// printStats renders the pipeline flight recorder as a per-stage table
// — the CLI face of the same counters jsinferd serves from /v1/stats
// and /metrics. The stages overlap in real time (the reader splits
// while the workers absorb), so the times answer "where did each
// stage's goroutines spend their time", not fractions of the wall. Two
// rows that are no pipeline stage follow: the process's garbage
// collector — its CPU time and the cycles run so far, as runtime/metrics
// reports them to the caller — and, when documents were absorbed, the
// schema's size in nodes against them. Under L a per_doc that stays
// high as docs grow says the equivalence is not summarising the input
// (every document brings a label set of its own); K is the answer. A
// footer line under the table says how to read the times.
func printStats(w io.Writer, s core.StatsSnapshot, gcCPU time.Duration, gcCycles uint64, schemaNodes, docs int) {
	fmt.Fprintln(w, "pipeline stats:")
	fmt.Fprintf(w, "  %-7s %12s  %s\n", "stage", "time", "counters")
	row := func(stage, clock string, counters []string) {
		line := fmt.Sprintf("  %-7s %12s  %s", stage, clock, strings.Join(counters, " "))
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	ms := func(nanos int64) string { return fmt.Sprintf("%.3fms", float64(nanos)/1e6) }
	for _, clock := range infer.StatsFields {
		if !clock.Clock() {
			continue // one row per stage: the stages are the clocks, in table order
		}
		var counters []string
		for _, f := range infer.StatsFields {
			if f.Stage == clock.Stage && !f.Clock() {
				counters = append(counters, fmt.Sprintf("%s=%d", f.Name, *f.At(&s)))
			}
		}
		row(clock.Stage, ms(*clock.At(&s)), counters)
	}
	row("gc", ms(int64(gcCPU)), []string{fmt.Sprintf("cycles=%d", gcCycles)})
	if docs > 0 {
		row("schema", "", []string{fmt.Sprintf("nodes=%d docs=%d per_doc=%.2f", schemaNodes, docs, float64(schemaNodes)/float64(docs))})
	}
	fmt.Fprintln(w, "  at several workers a stage's time is the sum over its goroutines, so map can exceed the wall time")
}

// streamInput runs the streamed engine over stdin or the named files,
// which are one collection: one run reads them in turn, and an error
// names its file.
func streamInput(files []string, stdin io.Reader, eng core.Engine, opts core.StreamOptions) (*core.Inference, int, error) {
	if len(files) == 0 {
		return core.InferSchemaStreamWith(stdin, eng, opts)
	}
	return core.InferSchemaStreamFilesWith(files, eng, opts)
}
