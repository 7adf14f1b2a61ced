// Command jsinfer infers a schema from an NDJSON collection on stdin
// (or files given as arguments) with a selectable engine, and prints
// the result as a type expression, a JSON Schema document, or
// generated TypeScript/Swift declarations.
//
// Usage:
//
//	jsinfer [-engine parametric-L|parametric-K|spark|skinfer]
//	        [-output type|jsonschema|typescript|swift|report]
//	        [-workers N] [-stream] [-simplify] [-chunk-bytes SIZE]
//	        [-precision] [-counted] [-stats]
//	        [-cpuprofile f] [-memprofile f] [file.ndjson ...]
//
// The parametric engines run their map/reduce over N workers
// (-workers, default GOMAXPROCS). With -stream the input is never
// materialised: documents are typed straight off the mison structural
// index (no value trees, no separator tokens), and the workers index
// and type document-aligned byte chunks in parallel, so collections far
// larger than memory infer at multi-worker speed. A record the index
// cannot certify is re-read by the token walker over the same index,
// and a chunk the index rejects by the byte-at-a-time reference lexer.
// Large regular files given as arguments are memory-mapped, so the
// zero-copy byte engines split and lex the file pages in place; pipes,
// short files, platforms without mmap and stdin take buffered reads
// (`jsinfer -stream < file` for a file that may be truncated while it is
// read). -chunk-bytes SIZE (64K, 4M, …) cuts chunks at a byte target
// instead of every 256 documents — the knob for GB-scale corpora.
// Streaming is parametric-only. A streamed report has no precision
// column in its single pass; -precision fills it by re-reading the
// input in a bounded-memory second pass, which requires file arguments
// (stdin cannot be re-read). Flag combinations that could only fail
// after the (potentially huge) first pass are rejected up front.
//
// -stats (streamed runs only) prints the pipeline's flight recorder to
// stderr after inference: per-stage wall clocks (read, split, map,
// reduce, fuse) and the stage counters — chunks split, bytes lexed,
// documents absorbed, index fast-path vs token-fallback records, chunk
// parity rejections and seals. A one-shot run reduces in line (one
// accumulator, one final seal on the reduce clock), so seals reads 1 at
// one worker and chunks + 1 above, and the fuse clock and root_fuses —
// the cache-miss reads of the registry's collector, which jsinferd
// reports through the same counters — read 0 here. The schema on stdout
// is unaffected, so -stats composes with scripts.
//
// -cpuprofile and -memprofile write pprof profiles covering the
// inference pass (the heap profile is taken after it completes), so
// absorption-path work is profileable without editing benchmarks:
// `go tool pprof jsinfer cpu.out`.
//
// -counted renders the selected parametric engine's own counting
// annotations; for Spark/Skinfer (whose types carry no counts) it
// falls back to a parametric-K pass over the materialised input.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/core"
	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

// cliFlags are jsinfer's flags. registerFlags defines them on a flag
// set of the caller's choosing so the README test can walk exactly the
// set main parses.
type cliFlags struct {
	engine, output, chunkBytes, cpuprofile, memprofile *string
	counted, simplify, stream, precision, stats        *bool
	workers                                            *int
}

func registerFlags(fs *flag.FlagSet) cliFlags {
	return cliFlags{
		engine:     fs.String("engine", "parametric-L", "inference engine: parametric-L, parametric-K, spark, skinfer"),
		output:     fs.String("output", "type", "output form: type, jsonschema, typescript, swift, report"),
		counted:    fs.Bool("counted", false, "render counting annotations (type output only)"),
		simplify:   fs.Bool("simplify", false, "drop union alternatives subsumed by others"),
		workers:    fs.Int("workers", 0, "parallel inference workers (parametric engines; 0 = GOMAXPROCS)"),
		stream:     fs.Bool("stream", false, "stream the input instead of materialising it (parametric engines only)"),
		precision:  fs.Bool("precision", false, "with -stream: compute precision in a second pass over the input files"),
		chunkBytes: fs.String("chunk-bytes", "", "with -stream: cut chunks at this byte size instead of every 256 documents (e.g. 4M)"),
		stats:      fs.Bool("stats", false, "with -stream: print pipeline stage stats to stderr after inference (fuse and root_fuses are the registry's counters and read 0 here)"),
		cpuprofile: fs.String("cpuprofile", "", "write a CPU profile of the inference pass to this file"),
		memprofile: fs.String("memprofile", "", "write a heap profile (taken after inference) to this file"),
	}
}

func main() {
	opt := registerFlags(flag.CommandLine)
	flag.Parse()

	if *opt.cpuprofile != "" {
		f, err := os.Create(*opt.cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *opt.memprofile != "" {
		defer func() {
			f, err := os.Create(*opt.memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

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
		fatal(fmt.Errorf("unknown engine %q", *opt.engine))
	}

	var (
		result *core.Inference
		ndocs  int
		docs   []*jsonvalue.Value
	)
	var chunkTarget int
	if *opt.chunkBytes != "" {
		cb, err := genjson.ParseSize(*opt.chunkBytes)
		if err != nil {
			fatal(fmt.Errorf("-chunk-bytes: %w", err))
		}
		chunkTarget = int(cb)
	}
	// Flag-only validation happens before any input is read: a bad
	// combination must exit non-zero immediately, not after a
	// potentially huge inference pass (or, worse, be silently ignored).
	if err := validateStreamFlags(*opt.stream, *opt.precision, *opt.stats, *opt.chunkBytes != "", *opt.output, flag.NArg()); err != nil {
		fatal(err)
	}
	if *opt.stream {
		var pstats *core.PipelineStats
		if *opt.stats {
			pstats = &core.PipelineStats{}
		}
		var err error
		result, ndocs, err = streamInput(flag.Args(), eng, core.StreamOptions{Workers: *opt.workers, ChunkBytes: chunkTarget, Stats: pstats})
		if pstats != nil {
			// Stats go to stderr even on an error exit: the partial
			// counters cover exactly the work done before the failure.
			printStats(os.Stderr, pstats.Snapshot())
		}
		if err != nil {
			fatal(err)
		}
		if *opt.precision {
			// The streamed single pass cannot grade precision (the data
			// is gone); the explicit second pass over the files can.
			p, _, err := core.StreamPrecisionFiles(flag.Args(), result.Type)
			if err != nil {
				fatal(fmt.Errorf("precision pass: %w", err))
			}
			result.Precision = p
		}
	} else {
		var err error
		docs, err = readInput(flag.Args())
		if err != nil {
			fatal(err)
		}
		ndocs = len(docs)
		if ndocs == 0 {
			// Checked before inference: the non-parametric engines
			// cannot type an empty collection.
			fatal(fmt.Errorf("no input documents"))
		}
		result, err = core.InferSchemaWorkers(docs, eng, *opt.workers)
		if err != nil {
			fatal(err)
		}
	}
	if ndocs == 0 {
		fatal(fmt.Errorf("no input documents"))
	}
	if *opt.simplify {
		result.Simplify()
	}

	switch *opt.output {
	case "type":
		switch {
		case *opt.counted && (eng == core.ParametricK || eng == core.ParametricL):
			// Parametric types carry counting annotations already — same
			// rendering whether the input was streamed or materialised.
			fmt.Println(result.Type.StringCounted())
		case *opt.counted:
			// Spark/Skinfer types carry no counts; derive them with a
			// parametric K pass (these engines never stream, so docs are
			// materialised here).
			ty := infer.InferParallel(docs, infer.Options{Equiv: typelang.EquivKind, Workers: *opt.workers})
			fmt.Println(ty.StringCounted())
		default:
			fmt.Println(result.Type)
		}
	case "jsonschema":
		fmt.Println(string(core.MarshalIndent(result.JSONSchema, "  ")))
	case "typescript":
		fmt.Print(core.TypeToTypeScript("Root", result.Type))
	case "swift":
		fmt.Print(core.TypeToSwift("Root", result.Type))
	case "report":
		fmt.Printf("engine:    %s\n", result.Engine)
		fmt.Printf("documents: %d\n", ndocs)
		fmt.Printf("size:      %d nodes\n", result.Size)
		if result.Precision >= 0 {
			fmt.Printf("precision: %.3f\n", result.Precision)
		} else {
			fmt.Printf("precision: n/a (streamed single pass; rerun with -precision and file arguments for a second pass)\n")
		}
		fmt.Printf("type:      %s\n", result.Type)
	default:
		fatal(fmt.Errorf("unknown output %q", *opt.output))
	}
}

// validateStreamFlags rejects stream-flag combinations up front, before
// any input is read: -precision re-reads the input for the report's
// precision column, so it needs -stream, the report output and
// re-readable file arguments (stdin cannot be re-read); -chunk-bytes
// and -stats configure the streamed engine, so explicitly setting
// either without -stream is a mistake rather than something to ignore.
func validateStreamFlags(stream, precision, stats, chunkBytesSet bool, output string, nArgs int) error {
	if !stream {
		if precision {
			return fmt.Errorf("-precision requires -stream (a materialised report always includes precision)")
		}
		if stats {
			return fmt.Errorf("-stats reports the streamed pipeline's counters; add -stream")
		}
		if chunkBytesSet {
			return fmt.Errorf("-chunk-bytes sizes the streamed engines' chunks; add -stream")
		}
		return nil
	}
	if precision && output != "report" {
		return fmt.Errorf("-precision only affects -output report")
	}
	if precision && nArgs == 0 {
		return fmt.Errorf("-precision with -stream needs file arguments: stdin cannot be re-read")
	}
	return nil
}

func readInput(files []string) ([]*jsonvalue.Value, error) {
	if len(files) == 0 {
		return jsontext.NewDecoder(os.Stdin).DecodeAll()
	}
	var docs []*jsonvalue.Value
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		part, err := jsontext.NewDecoder(f).DecodeAll()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		docs = append(docs, part...)
	}
	return docs, nil
}

// printStats renders the pipeline flight recorder as a per-stage table
// — the CLI face of the same counters jsinferd serves from /v1/stats
// and /metrics. The stages overlap in real time (the reader splits
// while the workers absorb), so the times answer "where did each
// stage's goroutines spend their time", not fractions of the wall.
func printStats(w io.Writer, s core.StatsSnapshot) {
	fmt.Fprintln(w, "pipeline stats:")
	fmt.Fprintf(w, "  %-7s %12s  %s\n", "stage", "time", "counters")
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
		row := fmt.Sprintf("  %-7s %12s  %s", clock.Stage, fmt.Sprintf("%.3fms", float64(*clock.At(&s))/1e6), strings.Join(counters, " "))
		fmt.Fprintln(w, strings.TrimRight(row, " "))
	}
}

// streamInput runs streaming-parallel inference over stdin or the
// named files (one decoder per file, so errors name the file).
func streamInput(files []string, eng core.Engine, opts core.StreamOptions) (*core.Inference, int, error) {
	if len(files) == 0 {
		return core.InferSchemaStreamWith(os.Stdin, eng, opts)
	}
	return core.InferSchemaStreamFilesWith(files, eng, opts)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jsinfer:", err)
	os.Exit(1)
}
