package codegen

import (
	"fmt"
	"sort"
	"strings"
	"unicode"

	"repro/internal/typelang"
)

// Swift renders a typelang type as Swift source: Codable structs for
// records, optionals for Null-or-T unions and optional fields, and
// enums with associated values for general unions — the §3 contrast
// with TypeScript, whose structural unions need no nominal wrapper.
func Swift(rootName string, t *typelang.Type) string {
	g := &swiftGen{decls: map[string]string{}, used: map[string]bool{}}
	expr := g.expr(t, rootName)
	var b strings.Builder
	b.WriteString("// Generated by jsonkit codegen; do not edit.\nimport Foundation\n\n")
	names := make([]string, 0, len(g.decls))
	for n := range g.decls {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString(g.decls[n])
		b.WriteByte('\n')
	}
	if expr != rootName {
		fmt.Fprintf(&b, "typealias %s = %s\n", rootName, expr)
	}
	return b.String()
}

type swiftGen struct {
	decls map[string]string
	used  map[string]bool
}

func (g *swiftGen) expr(t *typelang.Type, hint string) string {
	switch t.Kind {
	case typelang.KNull:
		// A bare null type only arises inside unions; alone it is best
		// modelled as an optional of nothing useful.
		return "NSNull"
	case typelang.KBool:
		return "Bool"
	case typelang.KInt:
		return "Int"
	case typelang.KNum:
		return "Double"
	case typelang.KStr:
		return "String"
	case typelang.KAny:
		return "AnyCodable"
	case typelang.KBottom:
		return "Never"
	case typelang.KArray:
		return "[" + g.expr(t.Elem, hint+"Item") + "]"
	case typelang.KUnion:
		// Null + T is Swift's Optional.
		if rest, hadNull := stripNull(t); hadNull {
			inner := g.expr(rest, hint)
			return inner + "?"
		}
		return g.unionEnum(t, hint)
	case typelang.KRecord:
		return g.structDecl(t, hint)
	default:
		return "AnyCodable"
	}
}

// stripNull removes a Null alternative from a union, returning the
// remaining type and whether Null was present.
func stripNull(t *typelang.Type) (*typelang.Type, bool) {
	var rest []*typelang.Type
	hadNull := false
	for _, a := range t.Alts {
		if a.Kind == typelang.KNull {
			hadNull = true
			continue
		}
		rest = append(rest, a)
	}
	if !hadNull {
		return t, false
	}
	switch len(rest) {
	case 0:
		return typelang.Any, true
	case 1:
		return rest[0], true
	default:
		u := &typelang.Type{Kind: typelang.KUnion, Alts: rest}
		return u, true
	}
}

// structDecl declares a record as a Codable struct. A field whose name
// is not a legal Swift property, or whose legal form an earlier field
// already took, gets a distinct property and a CodingKey carrying its
// JSON name.
func (g *swiftGen) structDecl(t *typelang.Type, hint string) string {
	name := fresh(g.used, exportName(hint))
	var b strings.Builder
	fmt.Fprintf(&b, "struct %s: Codable {\n", name)
	props := make([]string, len(t.Fields))
	taken := make(map[string]bool, len(t.Fields))
	var needKeys bool
	for i, f := range t.Fields {
		props[i] = fresh(taken, swiftPropName(f.Name))
		if props[i] != f.Name {
			needKeys = true
		}
		typ := g.expr(f.Type, name+exportName(f.Name))
		if f.Optional && !strings.HasSuffix(typ, "?") {
			typ += "?"
		}
		fmt.Fprintf(&b, "    let %s: %s\n", props[i], typ)
	}
	if needKeys {
		b.WriteString("\n    enum CodingKeys: String, CodingKey {\n")
		for i, f := range t.Fields {
			if props[i] == f.Name {
				fmt.Fprintf(&b, "        case %s\n", props[i])
			} else {
				fmt.Fprintf(&b, "        case %s = %s\n", props[i], swiftQuote(f.Name))
			}
		}
		b.WriteString("    }\n")
	}
	b.WriteString("}\n")
	g.decls[name] = b.String()
	return name
}

// unionEnum models a general union as an enum with associated values —
// what §3 notes Swift must do where TypeScript writes A | B.
func (g *swiftGen) unionEnum(t *typelang.Type, hint string) string {
	name := fresh(g.used, exportName(hint))
	var b strings.Builder
	fmt.Fprintf(&b, "enum %s: Codable {\n", name)
	caseNames := make([]string, len(t.Alts))
	caseTypes := make([]string, len(t.Alts))
	for i, a := range t.Alts {
		caseNames[i] = unionCaseName(a, i)
		caseTypes[i] = g.expr(a, name+exportName(caseNames[i]))
		fmt.Fprintf(&b, "    case %s(%s)\n", caseNames[i], caseTypes[i])
	}
	// Decodable: try each branch in order — the JSON-level semantics of
	// an untagged union.
	b.WriteString("\n    init(from decoder: Decoder) throws {\n")
	b.WriteString("        let c = try decoder.singleValueContainer()\n")
	for i := range t.Alts {
		fmt.Fprintf(&b, "        if let v = try? c.decode(%s.self) { self = .%s(v); return }\n",
			caseTypes[i], caseNames[i])
	}
	fmt.Fprintf(&b, "        throw DecodingError.typeMismatch(%s.self, .init(codingPath: decoder.codingPath, debugDescription: %s))\n",
		name, swiftQuote("no union branch matched"))
	b.WriteString("    }\n")
	b.WriteString("\n    func encode(to encoder: Encoder) throws {\n")
	b.WriteString("        var c = encoder.singleValueContainer()\n")
	b.WriteString("        switch self {\n")
	for i := range t.Alts {
		fmt.Fprintf(&b, "        case .%s(let v): try c.encode(v)\n", caseNames[i])
	}
	b.WriteString("        }\n    }\n}\n")
	g.decls[name] = b.String()
	return name
}

func unionCaseName(t *typelang.Type, i int) string {
	switch t.Kind {
	case typelang.KNull:
		return "null"
	case typelang.KBool:
		return "bool"
	case typelang.KInt:
		return "int"
	case typelang.KNum:
		return "number"
	case typelang.KStr:
		return "string"
	case typelang.KArray:
		return "array"
	case typelang.KRecord:
		return fmt.Sprintf("object%d", i)
	default:
		return fmt.Sprintf("case%d", i)
	}
}

// swiftReserved is Swift's keyword list — the declaration, statement,
// expression and pattern keywords, none of which a property may be
// named unescaped — plus Type and Protocol, which name a metatype's
// members.
var swiftReserved = map[string]bool{
	// Declarations.
	"associatedtype": true, "borrowing": true, "class": true, "consuming": true,
	"deinit": true, "enum": true, "extension": true, "fileprivate": true,
	"func": true, "import": true, "init": true, "inout": true, "internal": true,
	"let": true, "nonisolated": true, "open": true, "operator": true,
	"private": true, "precedencegroup": true, "protocol": true, "public": true,
	"rethrows": true, "static": true, "struct": true, "subscript": true,
	"typealias": true, "var": true,
	// Statements.
	"break": true, "case": true, "catch": true, "continue": true, "default": true,
	"defer": true, "do": true, "else": true, "fallthrough": true, "for": true,
	"guard": true, "if": true, "in": true, "repeat": true, "return": true,
	"throw": true, "switch": true, "where": true, "while": true,
	// Expressions and types.
	"Any": true, "as": true, "await": true, "false": true, "is": true,
	"nil": true, "self": true, "Self": true, "super": true, "throws": true,
	"true": true, "try": true,
	// Patterns.
	"_": true,
	// Metatype members.
	"Type": true, "Protocol": true,
}

// swiftPropName maps a JSON field name onto a legal Swift property
// name, renaming when the original is reserved or not an identifier.
func swiftPropName(name string) string {
	if identRe.MatchString(name) && !swiftReserved[name] {
		return name
	}
	candidate := strings.Map(func(r rune) rune {
		if 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || r == '_' {
			return r
		}
		return '_'
	}, name)
	if candidate == "" || !identRe.MatchString(candidate) || swiftReserved[candidate] {
		candidate = "field_" + candidate
	}
	return candidate
}

// swiftQuote quotes s as a Swift string literal, which has escapes of
// its own and holds no raw line break.
func swiftQuote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		case 0:
			b.WriteString(`\0`)
		default:
			if unicode.IsControl(r) {
				fmt.Fprintf(&b, `\u{%x}`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}
