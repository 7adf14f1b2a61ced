// apilogs: the tutorial's motivating scenario — a service ingests
// heterogeneous JSON events from a web API (here: GitHub-style events)
// and needs to understand and police their structure. The example
// runs the full §4.1 tool chest over one stream: parametric inference,
// Spark-style inference (to see what the union-free lattice loses),
// the mongodb-schema streaming analyzer, a mined skeleton for query
// planning, and fast projection of two fields with the Mison-style
// parser.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/mison"
	"repro/internal/skeleton"
)

func main() {
	// 2000 events of six different layouts (one per event type).
	docs := genjson.Collection(genjson.GitHub{Seed: 2024}, 2000)

	// 1. Parametric inference, both levels.
	k, err := core.InferSchema(docs, core.ParametricK)
	if err != nil {
		log.Fatal(err)
	}
	l, err := core.InferSchema(docs, core.ParametricL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parametric-K: size %4d nodes, precision %.3f\n", k.Size(), k.Precision)
	fmt.Printf("parametric-L: size %4d nodes, precision %.3f\n", l.Size(), l.Precision)

	// 2. Spark-style inference collapses the per-event-type payloads.
	spark, err := core.InferSchema(docs, core.Spark)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spark:        size %4d nodes, precision %.3f  <- union-free lattice\n",
		spark.Size(), spark.Precision)

	// 3. Streaming per-field statistics (mongodb-schema style).
	report := core.AnalyzeStreaming(docs)
	fields, _ := report.Get("fields")
	fmt.Printf("\nstreaming analyzer: %d field paths; first three:\n", fields.Len())
	for i := 0; i < 3 && i < fields.Len(); i++ {
		f := fields.Elem(i)
		name, _ := f.Get("name")
		prob, _ := f.Get("probability")
		fmt.Printf("  %-20s present %.0f%%\n", name.Str(), prob.Num()*100)
	}

	// 4. A skeleton for query formulation: which paths are safe to
	// query at 10% support?
	sk := skeleton.Build(docs, 0.10)
	fmt.Printf("\nskeleton at 10%% support: %d paths, coverage %.3f\n",
		sk.Size(), sk.Coverage(docs))
	for _, q := range []string{"actor.login", "payload.commits[].sha", "payload.release.tag_name"} {
		fmt.Printf("  can answer %-28s %v\n", q+"?", sk.AnswersPath(q))
	}

	// 5. Analytics-style projection: count events per type without
	// parsing payloads (Mison-style).
	p := mison.MustNewParser("type", "actor.login")
	counts := map[string]int{}
	for _, d := range docs {
		row, err := p.ParseRecord(jsontext.Marshal(d))
		if err != nil {
			log.Fatal(err)
		}
		counts[row[0].Str()]++
	}
	fmt.Printf("\nevents by type (speculation hit rate %.2f):\n",
		float64(p.Hits)/float64(p.Hits+p.Misses))
	for _, ty := range []string{"PushEvent", "PullRequestEvent", "IssuesEvent", "ForkEvent", "WatchEvent", "ReleaseEvent"} {
		fmt.Printf("  %-18s %d\n", ty, counts[ty])
	}
}
