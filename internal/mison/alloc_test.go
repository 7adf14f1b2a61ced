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

// allocWindows are allocFixture padded with blanks to a whole number
// of 64-byte blocks (no tail block), and one and 63 bytes longer: the
// index reads a tail through a zero-padded block that must stay on the
// stack.
var allocWindows = func() map[string][]byte {
	blocks := append(bytes.Clone(allocFixture), bytes.Repeat([]byte(" "), (64-len(allocFixture)%64)%64)...)
	return map[string][]byte{
		"blocks":    blocks,
		"blocks+1":  append(bytes.Clone(blocks), ' '),
		"blocks+63": append(bytes.Clone(blocks), bytes.Repeat([]byte(" "), 63)...),
	}
}()

func TestTokenSourceZeroSteadyStateAllocs(t *testing.T) {
	for name, window := range allocWindows {
		ts := NewTokenSource()
		drain := func() {
			if err := ts.Reset(window, 0); err != nil {
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
			t.Errorf("%s (%d bytes): warm TokenSource allocates %.1f times per chunk; want 0", name, len(window), n)
		}
	}
}

func TestIndexZeroSteadyStateAllocs(t *testing.T) {
	ix := NewIndex()
	rebuild := func() {
		if err := ix.rebuild(allocFixture); err != nil {
			t.Fatal(err)
		}
	}
	rebuild() // warm the event, colon-list and bitmap storage
	if n := testing.AllocsPerRun(50, rebuild); n > 0 {
		t.Errorf("warm Index rebuild allocates %.1f times per chunk; want 0", n)
	}
}

func TestFieldWalkerZeroSteadyStateAllocs(t *testing.T) {
	for name, window := range allocWindows {
		w := NewFieldWalker()
		w.SetInternStrings(true)
		reset := func() { w.Reset(window, 0) }
		reset() // warm the index and intern cache
		if n := testing.AllocsPerRun(50, reset); n > 0 {
			t.Errorf("%s (%d bytes): warm FieldWalker reset allocates %.1f times per chunk; want 0", name, len(window), n)
		}
	}
}
