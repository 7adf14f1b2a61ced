package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
	"repro/internal/registry"
	"repro/internal/typelang"
)

// TestServedFormsAreJsinferStdout ingests each checked-in fixture under
// parametric K and L and compares every form the schema GET serves with
// what a jsinfer built from this tree prints for the same file, byte for
// byte: the two commands must not decide an output's bytes apart. The
// ?meta=1 envelope of each form is pinned too: the collection's snapshot
// fields, then the schema as jsinfer prints it — the JSON Schema
// document as JSON, the type forms as one string without the final
// newline, the generated declarations as printed. Each fixture is
// posted twice, and both rounds are compared, the second with jsinfer's
// output for the fixture concatenated with itself.
func TestServedFormsAreJsinferStdout(t *testing.T) {
	jsinfer := filepath.Join(t.TempDir(), "jsinfer")
	build := exec.Command("go", "build", "-o", jsinfer, "repro/cmd/jsinfer")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build jsinfer: %v\n%s", err, out)
	}
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ndjson"))
	if err != nil || len(fixtures) != 5 {
		t.Fatalf("fixtures: %v (%d found, want 5)", err, len(fixtures))
	}
	var countFree int64
	for _, form := range core.OutputForms {
		if !form.Counts {
			countFree++
		}
	}
	for _, engine := range []struct {
		name  string
		equiv typelang.Equiv
	}{{"parametric-K", typelang.EquivKind}, {"parametric-L", typelang.EquivLabel}} {
		srv, reg := newTestServer(t, registry.Options{Equiv: engine.equiv})
		for _, fixture := range fixtures {
			data, err := os.ReadFile(fixture)
			if err != nil {
				t.Fatal(err)
			}
			col := strings.TrimSuffix(filepath.Base(fixture), ".ndjson")
			// The second round posts the fixture again, which moves
			// counts only: the count-free forms are then served from the
			// renderings the first round kept, and must still be what
			// jsinfer prints for the two bodies concatenated.
			twice := filepath.Join(t.TempDir(), col+".ndjson")
			if err := os.WriteFile(twice, append(slices.Clip(data), data...), 0o644); err != nil {
				t.Fatal(err)
			}
			for round, file := range []string{fixture, twice} {
				if code, body := post(t, srv.URL+"/v1/collections/"+col+"/ingest", data); code != http.StatusOK {
					t.Fatalf("%s %s: ingest status %d: %s", engine.name, col, code, body)
				}
				for _, form := range core.OutputForms {
					args := []string{"-engine", engine.name, "-output", form.Name, file}
					var stdout, stderr bytes.Buffer
					cli := exec.Command(jsinfer, args...)
					cli.Stdout, cli.Stderr = &stdout, &stderr
					if err := cli.Run(); err != nil {
						t.Fatalf("jsinfer %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
					}
					want := stdout.String()
					where := fmt.Sprintf("%s %s %s round %d", engine.name, col, form.Name, round+1)

					resp, err := http.Get(srv.URL + "/v1/collections/" + col + "/schema?output=" + form.Name)
					if err != nil {
						t.Fatal(err)
					}
					var served bytes.Buffer
					served.ReadFrom(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != form.ContentType {
						t.Errorf("%s: status %d, Content-Type %q; want 200, %q", where, resp.StatusCode, resp.Header.Get("Content-Type"), form.ContentType)
					}
					if served.String() != want {
						t.Errorf("%s: GET serves %d bytes ending %q, jsinfer prints %d ending %q",
							where, served.Len(), tail(served.String()), len(want), tail(want))
					}

					snap, _ := reg.Get(col)
					schema := jsonvalue.NewString(want)
					switch form.Name {
					case "jsonschema":
						if schema, err = jsontext.Parse([]byte(want)); err != nil {
							t.Fatalf("%s: jsinfer printed no JSON: %v", where, err)
						}
					case "type", "counted":
						schema = jsonvalue.NewString(strings.TrimSuffix(want, "\n"))
					}
					envelope := string(jsontext.MarshalIndent(snapshotMeta(snap).WithField("schema", schema), "  ")) + "\n"
					if _, meta := get(t, srv.URL+"/v1/collections/"+col+"/schema?meta=1&output="+form.Name); meta != envelope {
						t.Errorf("%s: ?meta=1 envelope\n got: %s\nwant: %s", where, meta, envelope)
					}
				}
				// One rendering per count-free form, in the first round.
				if snap, _ := reg.Get(col); snap.Renders != countFree {
					t.Errorf("%s %s round %d: %d renderings, want %d", engine.name, col, round+1, snap.Renders, countFree)
				}
			}
		}
	}
}

// tail is the last few bytes of s, enough to show a trailing newline.
func tail(s string) string { return s[max(0, len(s)-8):] }
