package mison

import (
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
)

// BenchmarkTokenSourceVsLexer isolates pure token throughput on warm
// tweet-shaped chunks: the reference byte-at-a-time lexer against the
// structural-index source, both in the skip-string mode the inference
// engine uses. This is the microbenchmark behind the E3 mison rows.
func BenchmarkTokenSourceVsLexer(b *testing.B) {
	docs := genjson.Collection(genjson.Twitter{Seed: 13}, 1000)
	raw := jsontext.MarshalLines(docs)
	drain := func(b *testing.B, src jsontext.TokenSource) {
		for {
			tok, err := src.ReadTokenSkipString()
			if err != nil {
				b.Fatal(err)
			}
			if tok.Kind == jsontext.TokEOF {
				return
			}
		}
	}
	b.Run("lexer", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		tr := jsontext.NewTokenReaderBytes(nil)
		tr.SetInternStrings(true)
		for i := 0; i < b.N; i++ {
			tr.ResetBytes(raw, 0)
			drain(b, tr)
		}
	})
	b.Run("mison", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		ts := NewTokenSource()
		ts.SetInternStrings(true)
		for i := 0; i < b.N; i++ {
			if err := ts.Reset(raw, 0); err != nil {
				b.Fatal(err)
			}
			drain(b, ts)
		}
	})
}

// BenchmarkFieldWalkerReset is the structural index pass alone:
// FieldWalker.Reset builds all four bitmaps over one warm walker, on
// corpora the size of jsperf's workloads (seed 1; tweets_seq and
// serve_mixed, fields_par, sparse_par). MB/s is index throughput.
func BenchmarkFieldWalkerReset(b *testing.B) {
	for _, c := range []struct {
		name string
		gen  genjson.Generator
		docs int
	}{
		{"twitter", genjson.Twitter{Seed: 1}, 5000},
		{"fields", genjson.Fields{Seed: 1}, 2400},
		{"sparse", genjson.Sparse{Seed: 1}, 10000},
	} {
		raw := jsontext.MarshalLines(genjson.Collection(c.gen, c.docs))
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			w := NewFieldWalker()
			w.Reset(raw, 0) // size the bitmaps
			for b.Loop() {
				w.Reset(raw, 0)
			}
		})
	}
}
