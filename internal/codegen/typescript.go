// Package codegen maps the shared type algebra into the type systems of
// the programming languages §3 of the tutorial surveys: TypeScript,
// whose structural interfaces and union types fit JSON records
// directly, and Swift, whose nominal structs need Codable conformance
// and model unions as enums with associated values. Generating both
// from one inferred type makes the tutorial's language comparison
// executable: the same JSON schema lands very differently in the two
// systems.
package codegen

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/jsontext"
	"repro/internal/typelang"
)

// identRe matches names usable as unquoted identifiers in both target
// languages.
var identRe = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// TypeScript renders a typelang type as a TypeScript declaration file:
// one named interface per record (nested records get derived names) and
// a type alias for the root.
func TypeScript(rootName string, t *typelang.Type) string {
	g := &tsGen{decls: map[string]string{}, used: map[string]bool{}}
	expr := g.expr(t, rootName)
	var b strings.Builder
	b.WriteString("// Generated by jsonkit codegen; do not edit.\n\n")
	names := make([]string, 0, len(g.decls))
	for n := range g.decls {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString(g.decls[n])
		b.WriteByte('\n')
	}
	// When the root is itself a record it is already declared under
	// rootName; an alias would be a duplicate identifier.
	if expr != rootName {
		fmt.Fprintf(&b, "export type %s = %s;\n", rootName, expr)
	}
	return b.String()
}

type tsGen struct {
	decls map[string]string
	used  map[string]bool
}

func (g *tsGen) expr(t *typelang.Type, hint string) string {
	switch t.Kind {
	case typelang.KNull:
		return "null"
	case typelang.KBool:
		return "boolean"
	case typelang.KInt, typelang.KNum:
		return "number"
	case typelang.KStr:
		return "string"
	case typelang.KAny:
		return "unknown"
	case typelang.KBottom:
		return "never"
	case typelang.KArray:
		inner := g.expr(t.Elem, hint+"Item")
		if strings.ContainsAny(inner, "|& ") {
			return "(" + inner + ")[]"
		}
		return inner + "[]"
	case typelang.KUnion:
		parts := make([]string, 0, len(t.Alts))
		for i, a := range t.Alts {
			parts = append(parts, g.expr(a, fmt.Sprintf("%sAlt%d", hint, i)))
		}
		return strings.Join(parts, " | ")
	case typelang.KRecord:
		name := fresh(g.used, exportName(hint))
		var b strings.Builder
		fmt.Fprintf(&b, "export interface %s {\n", name)
		for _, f := range t.Fields {
			opt := ""
			if f.Optional {
				opt = "?"
			}
			// JSON's escapes are all TypeScript's.
			key := f.Name
			if !identRe.MatchString(key) {
				key = string(jsontext.AppendQuoted(nil, key))
			}
			fmt.Fprintf(&b, "  %s%s: %s;\n", key, opt, g.expr(f.Type, name+exportName(f.Name)))
		}
		b.WriteString("}\n")
		g.decls[name] = b.String()
		return name
	default:
		return "unknown"
	}
}

// fresh returns name, or name with the smallest numeric suffix from 2
// up that taken does not hold yet, and marks the result taken.
func fresh(taken map[string]bool, name string) string {
	candidate := name
	for i := 2; taken[candidate]; i++ {
		candidate = name + strconv.Itoa(i)
	}
	taken[candidate] = true
	return candidate
}

// exportName turns an arbitrary field name into an identifier-ish
// PascalCase fragment.
func exportName(s string) string {
	var b strings.Builder
	up := true
	for _, r := range s {
		switch {
		case r == '_' || r == '-' || r == '.' || r == ' ':
			up = true
		case up:
			b.WriteString(strings.ToUpper(string(r)))
			up = false
		default:
			b.WriteRune(r)
		}
	}
	out := b.String()
	if out == "" || !identRe.MatchString(out) {
		return "Field"
	}
	return out
}

// CheckBalanced is a light well-formedness gate for generated sources:
// brackets balance outside string literals, and every string literal
// closes on its own line. It is not a compiler, but it catches the
// classes of emitter bugs that matter (unclosed blocks, stray quotes,
// unescaped line breaks), and E14 uses it as its oracle.
func CheckBalanced(src string) error {
	var stack []rune
	inString := false
	var quote rune
	escaped := false
	for i, r := range src {
		if inString {
			switch {
			case r == '\n' || r == '\r':
				return fmt.Errorf("codegen: raw line break in a string literal at offset %d", i)
			case escaped:
				escaped = false
			case r == '\\':
				escaped = true
			case r == quote:
				inString = false
			}
			continue
		}
		switch r {
		case '"', '\'', '`':
			inString = true
			quote = r
		case '{', '(', '[':
			stack = append(stack, r)
		case '}', ')', ']':
			if len(stack) == 0 {
				return fmt.Errorf("codegen: unmatched %q at offset %d", r, i)
			}
			open := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if (r == '}' && open != '{') || (r == ')' && open != '(') || (r == ']' && open != '[') {
				return fmt.Errorf("codegen: mismatched %q at offset %d", r, i)
			}
		}
	}
	if inString {
		return fmt.Errorf("codegen: unterminated string literal")
	}
	if len(stack) != 0 {
		return fmt.Errorf("codegen: %d unclosed brackets", len(stack))
	}
	return nil
}
