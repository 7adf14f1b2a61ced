package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/infer"
	"repro/internal/typelang"
)

// Golden tests over the checked-in fixture collections (testdata/ at
// the repository root): the K-inferred schema of each fixture is
// pinned, so any regression in the parser, the typing rules or the
// merge lattice shows up as a readable schema diff.
func TestGoldenInferredSchemas(t *testing.T) {
	golden := map[string]string{
		"tweets.ndjson": `{coordinates?: (Null + {coordinates: [Num], type: Str}), created_at: Str, entities: {hashtags: [{indices: [Int], text: Str}], urls: [{expanded_url: Str, url: Str}]}, favorite_count: Int, id: Int, id_str: Str, in_reply_to_status_id?: Int, lang: Str, place?: {country_code: Str, full_name: Str, id: Str}, retweet_count: Int, retweeted_status?: {coordinates?: {coordinates: [Num], type: Str}, created_at: Str, entities: {hashtags: [{indices: [Int], text: Str}], urls: [{expanded_url: Str, url: Str}]}, favorite_count: Int, id: Int, id_str: Str, lang: Str, place?: {country_code: Str, full_name: Str, id: Str}, retweet_count: Int, text: Str, truncated: Bool, user: {description?: Str, followers_count: Int, id: Int, location?: Str, screen_name: Str, verified: Bool}}, text: Str, truncated: Bool, user: {description?: Str, followers_count: Int, id: Int, location?: Str, screen_name: Str, verified: Bool}}`,
		"events.ndjson": `{actor: {id: Int, login: Str}, created_at: Str, id: Str, payload: {action?: Str, commits?: [{distinct: Bool, message: Str, sha: Str}], forkee?: {fork: Bool, full_name: Str, id: Int}, issue?: {labels: [Str], number: Int, title: Str}, number?: Int, pull_request?: {additions: Int, deletions: Int, merged: Bool, title: Str}, push_id?: Int, release?: {prerelease: Bool, tag_name: Str}, size?: Int}, public: Bool, repo: {id: Int, name: Str}, type: Str}`,
		"orders.ndjson": `{customer_city: Str, customer_id: Int, customer_name: Str, date: Str, lines: [{product_name: Str, qty: Int, sku: Int, unit_price: Num}], order_id: Int}`,
	}
	for name, want := range golden {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		docs, err := ParseCollection(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(docs) != 25 {
			t.Fatalf("%s: %d docs, want 25", name, len(docs))
		}
		ty := infer.Infer(docs, infer.Options{Equiv: typelang.EquivKind})
		if got := ty.String(); got != want {
			t.Errorf("%s: inferred schema drifted.\ngot:  %s\nwant: %s", name, got, want)
		}
		// The fixture's schema validates the fixture.
		for i, d := range docs {
			if !ty.Matches(d) {
				t.Fatalf("%s: doc %d rejected by its own schema", name, i)
			}
		}
	}
}

// The fixtures also pin the full pipeline end-to-end: infer ->
// JSON Schema -> validate, and translate -> restore.
func TestGoldenPipelines(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "orders.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	docs, err := ParseCollection(data)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := InferSchema(docs, ParametricL)
	if err != nil {
		t.Fatal(err)
	}
	v, err := CompileJSONSchema(inf.JSONSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		if !v.Accepts(d) {
			t.Fatalf("doc %d rejected", i)
		}
	}
	tr, err := Translate(docs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := RestoreColumnar(tr)
	if err != nil || len(back) != len(docs) {
		t.Fatalf("restore failed: %v", err)
	}
}
