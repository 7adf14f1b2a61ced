package mison

import (
	"bytes"
	"testing"

	"repro/internal/jsontext"
)

// The reuse satellite's steady-state pins: a warm TokenSource, Index
// and FieldWalker rebind to chunk after chunk without allocating — the
// amortisation that keeps per-chunk garbage off the streamed engines'
// steady state. Fixtures stick to plain integers, strings, bools and
// nulls so no token delegates to the scanner (delegation itself is
// allocation-free in skip mode, but keeping the fixture clean makes the
// assertion about the reuse machinery, not the lexer).

var allocFixture = bytes.Repeat([]byte(`{"id": 12345, "name": "alpha", "tags": ["a", "b"], "on": true, "ref": null}`+"\n"), 16)

func TestTokenSourceZeroSteadyStateAllocs(t *testing.T) {
	ts := NewTokenSource()
	drain := func() {
		if err := ts.Reset(allocFixture, 0); err != nil {
			t.Fatal(err)
		}
		for {
			tok, err := ts.ReadTokenSkipString()
			if err != nil {
				t.Fatal(err)
			}
			if tok.Kind == jsontext.TokEOF {
				return
			}
		}
	}
	drain() // warm the bitmap storage
	if n := testing.AllocsPerRun(50, drain); n > 0 {
		t.Errorf("warm TokenSource allocates %.1f times per chunk; want 0", n)
	}
}

func TestIndexZeroSteadyStateAllocs(t *testing.T) {
	ix := NewIndex()
	rebuild := func() {
		if err := ix.rebuild(allocFixture, 0); err != nil {
			t.Fatal(err)
		}
	}
	rebuild() // warm the event, colon-list and bitmap storage
	if n := testing.AllocsPerRun(50, rebuild); n > 0 {
		t.Errorf("warm Index rebuild allocates %.1f times per chunk; want 0", n)
	}
}

func TestFieldWalkerZeroSteadyStateAllocs(t *testing.T) {
	w := NewFieldWalker()
	w.SetInternStrings(true)
	reset := func() { w.Reset(allocFixture, 0) }
	reset() // warm the index and intern cache
	if n := testing.AllocsPerRun(50, reset); n > 0 {
		t.Errorf("warm FieldWalker reset allocates %.1f times per chunk; want 0", n)
	}
}
