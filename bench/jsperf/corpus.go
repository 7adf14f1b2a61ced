package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// equiv is the merge equivalence of every workload: L, the default of
// both jsinfer and jsinferd.
const equiv = typelang.EquivLabel

// A workload is one set of inputs and the way the program is run on it.
type workload struct {
	name string
	// gen builds the seeded generator and docs is how many documents of
	// it make the corpus.
	gen  func(seed int64) genjson.Generator
	docs int
	// workers is the engine's worker count, 0 for the default: jsinfer's
	// -workers flag, and the same choice for the in-process layer runs.
	workers int
	// serve marks the daemon workload: ops are request scripts against
	// jsinferd instead of jsinfer spawns.
	serve bool
}

var workloads = []workload{
	{
		name:    "tweets_seq",
		gen:     func(s int64) genjson.Generator { return genjson.Twitter{Seed: s} },
		docs:    5000,
		workers: 1,
	},
	{
		name: "fields_par",
		gen:  func(s int64) genjson.Generator { return genjson.Fields{Seed: s} },
		docs: 2400,
	},
	{
		name: "sparse_par",
		gen:  func(s int64) genjson.Generator { return genjson.Sparse{Seed: s} },
		docs: 10000,
	},
	{
		name:  "serve_mixed",
		gen:   func(s int64) genjson.Generator { return genjson.Twitter{Seed: s} },
		docs:  5000,
		serve: true,
	},
}

// cliArgs are the jsinfer flags a user types before the file name.
func (w workload) cliArgs() []string {
	if w.workers == 0 {
		return []string{"-stream"}
	}
	return []string{"-stream", "-workers", strconv.Itoa(w.workers)}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Request bodies of the daemon script: the corpus is cut into nBodies
// runs of whole documents and every gzipEvery-th is sent gzip-encoded.
const (
	nBodies   = 50
	gzipEvery = 4
)

// A body is one ingest request payload.
type body struct {
	raw  []byte // the NDJSON documents
	wire []byte // what is sent: raw, or its gzip encoding
	gzip bool
}

// A corpus is the generated input of one run.
type corpus struct {
	data   []byte // NDJSON, one document per line
	starts []int  // offset of every document, plus len(data)
	sha256 string
	bodies []body
}

// generate builds the corpus of n documents of g. The same generator
// and n always give the same bytes.
func generate(g genjson.Generator, n int) *corpus {
	c := &corpus{starts: make([]int, 0, n+1)}
	for i := 0; i < n; i++ {
		c.starts = append(c.starts, len(c.data))
		c.data = append(c.data, jsontext.Marshal(g.Generate(i))...)
		c.data = append(c.data, '\n')
	}
	c.starts = append(c.starts, len(c.data))
	sum := sha256.Sum256(c.data)
	c.sha256 = hex.EncodeToString(sum[:])
	return c
}

// cutBodies fills c.bodies. Every body holds the same number of
// documents, the last one the remainder too.
func (c *corpus) cutBodies() error {
	docs := len(c.starts) - 1
	per := docs / nBodies
	if per == 0 {
		return fmt.Errorf("corpus of %d documents is too small for %d bodies", docs, nBodies)
	}
	c.bodies = c.bodies[:0]
	for i := 0; i < nBodies; i++ {
		lo, hi := c.starts[i*per], c.starts[(i+1)*per]
		if i == nBodies-1 {
			hi = len(c.data)
		}
		b := body{raw: c.data[lo:hi], wire: c.data[lo:hi]}
		if i%gzipEvery == gzipEvery-1 {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			if _, err := zw.Write(b.raw); err != nil {
				return err
			}
			if err := zw.Close(); err != nil {
				return err
			}
			b.wire, b.gzip = buf.Bytes(), true
		}
		c.bodies = append(c.bodies, b)
	}
	return nil
}

// oracle computes the schema of the corpus by the paper's definition,
// independently of the streamed engines: parse every document, type it,
// merge all the types. It returns the text jsinfer prints for it.
func (c *corpus) oracle() (string, error) {
	types := make([]*typelang.Type, 0, len(c.starts)-1)
	for i := 0; i+1 < len(c.starts); i++ {
		v, err := jsontext.Parse(c.data[c.starts[i]:c.starts[i+1]])
		if err != nil {
			return "", fmt.Errorf("oracle: document %d: %w", i, err)
		}
		types = append(types, infer.TypeOf(v, equiv))
	}
	return typelang.MergeAll(types, equiv).String() + "\n", nil
}
