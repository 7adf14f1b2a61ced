package infer

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestSchemaInvariantUnderPermutationAndChunking is the paper's
// invariant as a metamorphic test: the merge is associative and
// commutative, so the inferred schema is a function of the multiset of
// documents and the equivalence alone. Each fixture's documents are
// shuffled and re-chunked at random (fixed seed; one-document chunks,
// one-line windows and one-chunk runs always included) and run at several worker counts,
// through every input kind — and every run must render,
// plain and counted, exactly what the oracle makes of the file as
// checked in.
func TestSchemaInvariantUnderPermutationAndChunking(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	forEachFixture(t, func(name string, data []byte) {
		lines := bytes.SplitAfter(data, []byte("\n"))
		if last := len(lines) - 1; len(lines[last]) == 0 {
			lines = lines[:last]
		} else {
			lines[last] = append(lines[last], '\n')
		}
		for _, e := range sweepEquivs {
			want, wantN, err := oracle(data, e)
			if err != nil || wantN != len(lines) {
				t.Fatalf("%s: oracle typed %d docs (err %v), fixture has %d lines", name, wantN, err, len(lines))
			}
			chunkings := []Options{
				{batch: 1},
				{ChunkBytes: 1},
				{ChunkBytes: len(data) + len(lines)},
				{batch: 2 + rng.Intn(2*len(lines))},
				{ChunkBytes: 1 + rng.Intn(len(data))},
				{},
			}
			for _, ck := range chunkings {
				rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
				ck.Equiv = e
				assertEngineYields(t, name+"/permuted", bytes.Join(lines, nil), ck, []int{1, 2, 4}, want, wantN, nil)
			}
		}
	})
}
