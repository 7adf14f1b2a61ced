package infer

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// absorbAllTokens is the reference side of the index-vs-tokens
// differential: the token walker absorbing every document of data
// into a fresh accumulator under e, returning the sealed type, the
// document count, and the first error.
func absorbAllTokens(data []byte, e typelang.Equiv) (*typelang.Type, int, error) {
	tr := jsontext.NewTokenReaderBytes(data)
	tr.SetInternStrings(true)
	acc := typelang.NewAccum(e)
	n := 0
	for {
		if err := AbsorbFromTokens(tr, acc); err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return acc.Seal(), n, err
		}
		n++
	}
}

// absorbAllIndexed is the index-driven side: ia — whatever its pattern
// tree has learned so far — absorbing every document of data into a
// fresh accumulator under e. ok is false when the index rejects the
// chunk outright (the caller checks the reference rejects too).
func absorbAllIndexed(ia *IndexAbsorber, data []byte, e typelang.Equiv) (t *typelang.Type, n int, err error, ok bool) {
	if err := ia.Reset(data, 0); err != nil {
		return nil, 0, nil, false
	}
	acc := typelang.NewAccum(e)
	for {
		if err := AbsorbFromIndex(ia, acc); err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return acc.Seal(), n, err, true
		}
		n++
	}
}

// coldAbsorber is an absorber as a mapper wires it, its pattern tree
// empty.
func coldAbsorber() *IndexAbsorber {
	ia := NewIndexAbsorber()
	ia.SetInternStrings(true)
	return ia
}

// FuzzIndexAbsorb pins the tentpole identity of index-driven
// absorption: on every input the index walker — and, for the records it
// bails on, the token walk over the same bitmaps — must produce exactly
// the outcome of the token walker over the reference lexer: the same
// sealed schema (counts included), the same document count, and on
// malformed input the same error message and offset. When the walker's
// Reset rejects a chunk, the fallback contract requires the token
// walker to reject the input too: rejection may never hide an accepting
// absorption.
func FuzzIndexAbsorb(f *testing.F) {
	seeds := []string{
		`{"a": [1, {"b": "x"}, null], "c": 1e-3}`,
		"{\"a\": 1}\n{\"b\": [true, false]}\n",
		`[true, false, "é😀", {}]`,
		`  42  `, `-0.5e+10`, `9007199254740993`, `1234567890123456789`,
		`""`, `"A😀\n"`, `"a\"b"`, `{"kA": 1}`, `{"kA": "\\"}`,
		`{"a": {"b": {"c": [[1], [2.5], ["x"]]}}}`,
		"{\"n\": 1.0}\n{\"n\": 2}\n{\"n\": 3e2}\n",
		`{"dup": 1, "dup": "two"}`,
		`{}`, `[]`, `[{}]`, `{"a": []}`,
		// Malformed UTF-8, control bytes, stray backslashes.
		"\"\xff\xfe\"", "\xff{", "\"a\xc3\x28b\"", "{\"s\": \"ctrl\x01\"}",
		`\`, `{"a": 1}\`, "\\\n{\"a\": 1}",
		// A backslash outside a string before a structural character: the
		// walker's structural bitmap keeps the character (Bitmaps.build
		// would strike it as escaped), and must bail on the backslash.
		`{"a":1\,"b":2}`, `[1\]`, `\{}`, `{"a"\:1}`,
		"{\"a\": 1}\n{\"b\": {\"x\": [1, 2\\]}, \"c\": 2}\n{\"d\": 3}\n",
		// Truncations and structural errors.
		`"\u12`, `"unterminated`, `{]`, `[1,]`, `{"a":1 "b":2}`,
		`1 2`, `{"a"}`, ``, `   `, `tru`, `12..5`, `01`, `1e`,
		`{"a": 1 x}`, `[1 2]`, `truex`, `{"a": 1,}`, `{, "a": 1}`,
		`{"a": 1} {"b": 2`, "{\"a\": 1}\n{\"b\": tru}\n{\"c\": 3}\n",
		strings.Repeat("[", 300) + strings.Repeat("]", 300),
		strings.Repeat(`{"a":`, 120) + "1" + strings.Repeat("}", 120),
		strings.Repeat("\\", 67) + `"x"`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantN, wantErr := absorbAllTokens(data, typelang.EquivKind)
		got, gotN, gotErr, ok := absorbAllIndexed(coldAbsorber(), data, typelang.EquivKind)
		if !ok {
			if wantErr == nil {
				t.Fatalf("index rejected chunk but the token walker accepts %q", data)
			}
			return
		}
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error = %v, token walker error = %v on %q", gotErr, wantErr, data)
		}
		if wantErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %q, token walker error %q on %q", gotErr, wantErr, data)
		}
		if gotN != wantN {
			t.Fatalf("%d documents, token walker absorbed %d on %q", gotN, wantN, data)
		}
		if !typelang.Equal(want, got) || want.StringCounted() != got.StringCounted() {
			t.Fatalf("schema diverges on %q\n tokens:  %s\n indexed: %s",
				data, want.StringCounted(), got.StringCounted())
		}
	})
}

// TestIndexAbsorbGeneratedCorpora runs the same differential over every
// generator's collection — bulk confirmation on realistic shapes, with
// the fallback path exercised by the Deep generator when it exceeds
// nothing (all clean) and by mixed-escape payloads in Twitter text.
func TestIndexAbsorbGeneratedCorpora(t *testing.T) {
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 71},
		genjson.GitHub{Seed: 72},
		genjson.SkewedOptional{Seed: 73},
		genjson.NestedArrays{Seed: 74},
		genjson.Sparse{Seed: 75},
		genjson.Deep{Seed: 76, Depth: 12},
		genjson.Fields{Seed: 77},
	}
	for _, g := range gens {
		data := jsontext.MarshalLines(genjson.Collection(g, 150))
		want, wantN, wantErr := absorbAllTokens(data, typelang.EquivKind)
		if wantErr != nil {
			t.Fatalf("%s: reference rejects generated corpus: %v", g.Name(), wantErr)
		}
		got, gotN, gotErr, ok := absorbAllIndexed(coldAbsorber(), data, typelang.EquivKind)
		if !ok || gotErr != nil {
			t.Fatalf("%s: indexed absorption failed (ok=%v err=%v)", g.Name(), ok, gotErr)
		}
		if gotN != wantN || want.StringCounted() != got.StringCounted() {
			t.Errorf("%s: indexed (%d docs) diverges from tokens (%d docs)\n tokens:  %s\n indexed: %s",
				g.Name(), gotN, wantN, want.StringCounted(), got.StringCounted())
		}
	}
}

// TestIndexAbsorberZeroSteadyStateAllocs pins the reuse satellite: a
// warm IndexAbsorber re-absorbing a clean chunk — structural index,
// bitmap storage, accumulator nodes — allocates nothing in steady
// state. The fixture sticks to plain integers,
// strings, bools and nulls; every shape the absorber resolves without
// delegation.
func TestIndexAbsorberZeroSteadyStateAllocs(t *testing.T) {
	data := bytes.Repeat([]byte(`{"id": 12345, "name": "alpha", "tags": ["a", "b"], "on": true, "ref": null}`+"\n"), 16)
	ia := NewIndexAbsorber()
	ia.SetInternStrings(true)
	acc := typelang.NewAccum(typelang.EquivKind)
	drain := func() {
		if err := ia.Reset(data, 0); err != nil {
			t.Fatal(err)
		}
		for {
			if err := AbsorbFromIndex(ia, acc); err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatal(err)
				}
				return
			}
		}
	}
	drain() // warm the index, bitmaps, intern cache and accumulator pools
	if n := testing.AllocsPerRun(50, drain); n > 0 {
		t.Errorf("warm index absorption allocates %.1f times per chunk; want 0", n)
	}
}

// TestColdMapperAllocatesFourBitmaps pins what raising the structural
// index costs a cold worker: four bitmaps of one bit per input byte —
// quote, backslash-or-control, non-ASCII and structural — built once,
// in one pass, whichever walk then reads them, and the same four when
// the chunk ends in an unterminated string (the token walk that words
// the error reads the same index). When the index walk had its own
// twelve-bitmap builder the same chunks cost 1.5 and 2.0 bytes per
// input byte.
func TestColdMapperAllocatesFourBitmaps(t *testing.T) {
	record := `{"id": 12345, "name": "alpha", "tags": ["a", "b"], "on": true, "ref": null}` + "\n"
	clean := bytes.Repeat([]byte(record), 1<<20/len(record))
	for name, data := range map[string][]byte{
		"clean":      clean,
		"odd-parity": append(clean[:len(clean):len(clean)], `{"s": "unterminated`+"\n"...),
	} {
		acc := typelang.NewAccum(typelang.EquivKind)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := newChunkMapper(nil).absorb(byteChunk{data: data, in: new(chunkReader)}, acc)
		runtime.ReadMemStats(&after)
		if n != len(clean)/len(record) || (err != nil) != (name == "odd-parity") {
			t.Fatalf("%s: absorbed %d documents, err %v", name, n, err)
		}
		if perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(data)); perByte > 0.55 {
			t.Errorf("%s: a cold mapper allocated %.3f bytes per input byte, want at most 0.55 (four bitmaps are 0.5)", name, perByte)
		}
	}
}
