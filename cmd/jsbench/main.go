// Command jsbench regenerates every experiment table indexed in
// docs/EXPERIMENTS.md (E1–E16) and prints them — the harness behind
// that record. Run a subset with -only (comma-separated IDs).
//
// Usage:
//
//	jsbench [-only E1,E6,E10] [-cpuprofile f] [-memprofile f]
//
// -cpuprofile and -memprofile write pprof profiles covering the
// selected experiments (the heap profile is taken after they finish),
// so hot paths — the absorption walkers in particular — are
// profileable under realistic experiment workloads without editing
// benchmark code: `go tool pprof jsbench cpu.out`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the runs) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jsbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "jsbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jsbench:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "jsbench:", err)
				os.Exit(1)
			}
		}()
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	runners := map[string]func() *experiments.Table{
		"E1":  experiments.E1SchemaSizes,
		"E2":  experiments.E2SparkImprecision,
		"E3":  experiments.E3ParallelSpeedup,
		"E4":  experiments.E4MongoVsStudio3T,
		"E5":  experiments.E5SkinferArrayGap,
		"E6":  experiments.E6MisonProjection,
		"E7":  experiments.E7FadjsSpeculation,
		"E8":  experiments.E8SkeletonCoverage,
		"E9":  experiments.E9ValidatorThroughput,
		"E10": experiments.E10SchemaTranslation,
		"E11": experiments.E11Normalization,
		"E12": experiments.E12CountingTypes,
		"E13": experiments.E13SchemaProfiling,
		"E14": experiments.E14Codegen,
		"E15": experiments.E15JaqlOutputSchema,
		"E16": experiments.E16SchemaDiscovery,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16"}
	for _, id := range order {
		if len(want) > 0 && !want[id] {
			continue
		}
		fmt.Println(runners[id]().String())
	}
}
