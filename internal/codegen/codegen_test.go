package codegen

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/genjson"
	"repro/internal/infer"
	"repro/internal/typelang"
)

func sampleType() *typelang.Type {
	return typelang.NewRecord(
		typelang.Field{Name: "id", Type: typelang.Int},
		typelang.Field{Name: "name", Type: typelang.Str},
		typelang.Field{Name: "score", Type: typelang.Union(typelang.Null, typelang.Num), Optional: true},
		typelang.Field{Name: "tags", Type: typelang.NewArray(typelang.Str)},
		typelang.Field{Name: "payload", Type: typelang.Union(typelang.Int, typelang.Str)},
		typelang.Field{Name: "meta", Type: typelang.NewRecord(
			typelang.Field{Name: "ok", Type: typelang.Bool},
		)},
	)
}

func TestTypeScriptOutput(t *testing.T) {
	src := TypeScript("Doc", sampleType())
	for _, want := range []string{
		"export interface Doc {",
		"id: number;",
		"score?: null | number;",
		"tags: string[];",
		"payload: number | string;",
		"meta: DocMeta;",
		"export interface DocMeta {",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("TypeScript output missing %q:\n%s", want, src)
		}
	}
	if err := CheckBalanced(src); err != nil {
		t.Errorf("unbalanced TS: %v", err)
	}
}

func TestTypeScriptNonIdentifierKeysQuoted(t *testing.T) {
	ty := typelang.NewRecord(
		typelang.Field{Name: "weird key", Type: typelang.Int},
		typelang.Field{Name: "a-b", Type: typelang.Str},
	)
	src := TypeScript("Odd", ty)
	if !strings.Contains(src, `"weird key": number;`) || !strings.Contains(src, `"a-b": string;`) {
		t.Errorf("quoting missing:\n%s", src)
	}
	if err := CheckBalanced(src); err != nil {
		t.Error(err)
	}
}

func TestSwiftOutput(t *testing.T) {
	src := Swift("Doc", sampleType())
	for _, want := range []string{
		"struct Doc: Codable {",
		"let id: Int",
		"let score: Double?", // Null+Num union -> optional Double
		"let tags: [String]",
		"enum DocPayload: Codable", // general union -> enum
		"case int(Int)",
		"case string(String)",
		"let meta: DocMeta",
		"struct DocMeta: Codable {",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("Swift output missing %q:\n%s", want, src)
		}
	}
	if err := CheckBalanced(src); err != nil {
		t.Errorf("unbalanced Swift: %v", err)
	}
}

func TestSwiftReservedAndIllegalNames(t *testing.T) {
	ty := typelang.NewRecord(
		typelang.Field{Name: "class", Type: typelang.Int},
		typelang.Field{Name: "my field", Type: typelang.Str},
	)
	src := Swift("Odd", ty)
	if !strings.Contains(src, "enum CodingKeys") {
		t.Errorf("CodingKeys expected for renamed fields:\n%s", src)
	}
	if strings.Contains(src, "let class:") {
		t.Error("reserved word leaked as property name")
	}
	if err := CheckBalanced(src); err != nil {
		t.Error(err)
	}
}

func TestOptionalNotDoubled(t *testing.T) {
	// Optional field whose type is already Null+T must not become T??.
	ty := typelang.NewRecord(
		typelang.Field{Name: "x", Type: typelang.Union(typelang.Null, typelang.Str), Optional: true},
	)
	src := Swift("D", ty)
	if strings.Contains(src, "String??") {
		t.Errorf("double optional:\n%s", src)
	}
}

func TestGeneratedFromInference(t *testing.T) {
	// E14's oracle: codegen over inferred types stays well-formed for
	// every generator under both equivalences.
	gens := []genjson.Generator{
		genjson.Twitter{Seed: 91},
		genjson.GitHub{Seed: 92},
		genjson.NestedArrays{Seed: 93},
		genjson.TypeDrift{Seed: 94},
		genjson.OpenData{Seed: 95},
	}
	for _, g := range gens {
		docs := genjson.Collection(g, 60)
		for _, e := range []typelang.Equiv{typelang.EquivKind, typelang.EquivLabel} {
			ty := infer.Infer(docs, infer.Options{Equiv: e})
			ts := TypeScript("Root", ty)
			if err := CheckBalanced(ts); err != nil {
				t.Errorf("%s/%v TS: %v", g.Name(), e, err)
			}
			sw := Swift("Root", ty)
			if err := CheckBalanced(sw); err != nil {
				t.Errorf("%s/%v Swift: %v", g.Name(), e, err)
			}
			if !strings.Contains(ts, "export") || !strings.Contains(sw, "Codable") {
				t.Errorf("%s/%v: outputs look empty", g.Name(), e)
			}
		}
	}
}

func TestCheckBalanced(t *testing.T) {
	good := []string{
		`interface A { x: string; }`,
		`let s = "a { not counted }"`,
		"type T = `tpl {` ",
	}
	for _, src := range good {
		if err := CheckBalanced(src); err != nil {
			t.Errorf("CheckBalanced(%q) = %v", src, err)
		}
	}
	bad := []string{
		`interface A { x: string;`,
		`}`,
		`( ]`,
		`let s = "unterminated`,
		"let s = \"a\nb\"",
		"case a = \"a\rb\"",
	}
	for _, src := range bad {
		if err := CheckBalanced(src); err == nil {
			t.Errorf("CheckBalanced(%q) passed, want error", src)
		}
	}
}

func TestNameCollisionsGetSuffixes(t *testing.T) {
	// Two sibling records that would both be named RootItem.
	ty := typelang.NewRecord(
		typelang.Field{Name: "item", Type: typelang.NewRecord(
			typelang.Field{Name: "a", Type: typelang.Int})},
		typelang.Field{Name: "Item", Type: typelang.NewRecord(
			typelang.Field{Name: "b", Type: typelang.Str})},
	)
	src := TypeScript("Root", ty)
	if !strings.Contains(src, "RootItem") || !strings.Contains(src, "RootItem2") {
		t.Errorf("collision handling missing:\n%s", src)
	}
}

// TestStringLiteralsEscapeControlCharacters: a field name holding a line
// break or another control character is escaped in both outputs — with
// JSON's escapes in TypeScript, Swift's own in a CodingKey.
func TestStringLiteralsEscapeControlCharacters(t *testing.T) {
	ty := typelang.NewRecord(
		typelang.Field{Name: "a\nb", Type: typelang.Int},
		typelang.Field{Name: "e\x01", Type: typelang.Bool},
		typelang.Field{Name: "q\"\\\t\r\x00", Type: typelang.Str},
	)
	ts := TypeScript("Root", ty)
	for _, want := range []string{`"a\nb": number;`, `"e\u0001": boolean;`, `"q\"\\\t\r\u0000": string;`} {
		if !strings.Contains(ts, want) {
			t.Errorf("TypeScript output missing %s:\n%s", want, ts)
		}
	}
	sw := Swift("Root", ty)
	for _, want := range []string{`= "a\nb"`, `= "e\u{1}"`, `= "q\"\\\t\r\0"`} {
		if !strings.Contains(sw, want) {
			t.Errorf("Swift output missing %s:\n%s", want, sw)
		}
	}
	for _, src := range []string{ts, sw} {
		if err := CheckBalanced(src); err != nil {
			t.Error(err)
		}
		if strings.ContainsAny(src, "\x00\x01\r") {
			t.Errorf("raw control character in\n%s", src)
		}
	}
}

// TestSwiftPropertiesAreDistinctIdentifiers: names that sanitise to the
// same property get numeric suffixes, and every keyword is renamed.
func TestSwiftPropertiesAreDistinctIdentifiers(t *testing.T) {
	ty := typelang.NewRecord(
		typelang.Field{Name: "a b", Type: typelang.Int},
		typelang.Field{Name: "a-b", Type: typelang.Str},
		typelang.Field{Name: "a_b", Type: typelang.Int},
	)
	src := Swift("Root", ty)
	for _, want := range []string{"let a_b: Int", "let a_b2: String", "let a_b3: Int", `case a_b3 = "a_b"`} {
		if !strings.Contains(src, want) {
			t.Errorf("Swift output missing %q:\n%s", want, src)
		}
	}
	var kw []typelang.Field
	for _, name := range []string{"as", "true", "nil", "is", "do", "try", "static", "protocol", "Self", "_"} {
		kw = append(kw, typelang.Field{Name: name, Type: typelang.Int})
	}
	src = Swift("Root", typelang.NewRecord(kw...))
	for _, f := range kw {
		if strings.Contains(src, "let "+f.Name+":") || !strings.Contains(src, "let field_"+f.Name+": Int") {
			t.Errorf("keyword %q not renamed to field_%s:\n%s", f.Name, f.Name, src)
		}
	}
	if err := checkSwiftProperties(src); err != nil {
		t.Errorf("%v\n%s", err, src)
	}
}

// checkSwiftProperties checks each struct of generated Swift source: its
// properties are legal identifiers, distinct, and no keyword.
func checkSwiftProperties(src string) error {
	var props map[string]bool
	for line := range strings.Lines(src) {
		switch {
		case strings.HasPrefix(line, "struct "):
			props = map[string]bool{}
		case strings.HasPrefix(line, "    let "):
			name, _, _ := strings.Cut(strings.TrimPrefix(line, "    let "), ":")
			if !identRe.MatchString(name) || swiftReserved[name] || props[name] {
				return fmt.Errorf("property %q is not a distinct legal identifier", name)
			}
			props[name] = true
		}
	}
	return nil
}

// FuzzCodegenNames puts arbitrary field names into a record, a nested
// record and a union: both outputs stay balanced, with every string
// literal on one line, and every Swift struct's properties are distinct
// legal identifiers.
func FuzzCodegenNames(f *testing.F) {
	f.Add("a b", "a-b", "a_b")
	f.Add("a\nb", "e\x01", "public")
	f.Add("as", "Self", "_")
	f.Add("field_public", "public", "\"\\")
	f.Add("", "1x", "\xff\u2028")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		record := func(names ...string) *typelang.Type {
			seen := map[string]bool{}
			var fs []typelang.Field
			for _, name := range names {
				if !seen[name] {
					seen[name] = true
					fs = append(fs, typelang.Field{Name: name, Type: typelang.Int, Optional: len(fs)%2 == 1})
				}
			}
			return typelang.NewRecord(fs...)
		}
		inner := record(b, c, a)
		fs := []typelang.Field{{Name: a, Type: inner}}
		if b != a {
			fs = append(fs, typelang.Field{Name: b, Type: typelang.Union(typelang.Str, record(c, a))})
		}
		if c != a && c != b {
			fs = append(fs, typelang.Field{Name: c, Type: typelang.NewArray(inner)})
		}
		ty := typelang.NewRecord(fs...)
		ts, sw := TypeScript("Root", ty), Swift("Root", ty)
		if err := CheckBalanced(ts); err != nil {
			t.Errorf("TypeScript: %v\n%s", err, ts)
		}
		if err := CheckBalanced(sw); err != nil {
			t.Errorf("Swift: %v\n%s", err, sw)
		}
		if err := checkSwiftProperties(sw); err != nil {
			t.Errorf("Swift: %v\n%s", err, sw)
		}
	})
}
