package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"testing"
)

// TestDefaultPGONamesTheHotPath checks the profile every plain `go
// build` of this command is optimised with (default.pgo, applied by
// -pgo=auto): its string table must name the engine's hot loops, the
// registry's ingest and the gzip decoder. A build rejects a malformed
// profile but silently accepts an empty one, one of a -h run or one of
// another program. make pgo rewrites it.
func TestDefaultPGONamesTheHotPath(t *testing.T) {
	f, err := os.Open("default.pgo")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{
		"repro/internal/mison.(*TokenSource).index",
		"repro/internal/infer.(*IndexAbsorber).absorbObject",
		"repro/internal/typelang.(*Accum).Seal",
		"repro/internal/registry.(*Registry).IngestWith",
		"compress/flate.(*decompressor).huffmanBlock",
	} {
		if !bytes.Contains(profile, []byte(fn)) {
			t.Errorf("default.pgo does not name %s", fn)
		}
	}
}
