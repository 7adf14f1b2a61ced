package infer

import (
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/mison"
)

// BenchmarkSplitters isolates the chunking stage on tweet-shaped
// NDJSON: the byte-at-a-time reference splitter against the
// structural-bitmap chunker. The splitter runs alone on the reader
// goroutine of a multi-worker run, so its throughput bounds how fast
// chunks can reach the worker pool.
func BenchmarkSplitters(b *testing.B) {
	docs := genjson.Collection(genjson.Twitter{Seed: 13}, 2000)
	raw := jsontext.MarshalLines(docs)
	b.Run("scan", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		var buf []int
		for i := 0; i < b.N; i++ {
			s := &scanSplitter{}
			buf = s.Splits(raw, buf[:0])
		}
	})
	b.Run("mison", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		var buf []int
		for i := 0; i < b.N; i++ {
			c := mison.NewChunker()
			buf = c.Splits(raw, buf[:0])
		}
	})
}
