package typelang

import (
	"repro/internal/jsonvalue"
)

// Witness generates a deterministic sample value inhabiting the type,
// or nil for uninhabited types (Bottom, and arrays/records built over
// it). seed varies the choice of union branches, optional-field
// presence and array lengths, so sweeping seeds explores the type's
// value space — the generative direction of the membership relation,
// used to cross-test every formalism that claims to accept the type's
// values (JSON Schema from FromType, the validators, the translators).
// Only tests call it; it is exported because core's tests do.
func (t *Type) Witness(seed int64) *jsonvalue.Value {
	g := &witnessGen{state: uint64(seed)*2654435761 + 1}
	return g.gen(t, 4)
}

type witnessGen struct {
	state uint64
}

func (g *witnessGen) next() uint64 {
	g.state ^= g.state << 13
	g.state ^= g.state >> 7
	g.state ^= g.state << 17
	return g.state
}

func (g *witnessGen) gen(t *Type, depth int) *jsonvalue.Value {
	if t == nil {
		return nil
	}
	switch t.Kind {
	case KBottom:
		return nil
	case KNull:
		return jsonvalue.NewNull()
	case KBool:
		return jsonvalue.NewBool(g.next()%2 == 0)
	case KInt:
		return jsonvalue.NewInt(int64(g.next() % 1000))
	case KNum:
		return jsonvalue.NewNumber(float64(g.next()%1000) + 0.5)
	case KStr:
		words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
		return jsonvalue.NewString(words[g.next()%uint64(len(words))])
	case KAny:
		// Any's witnesses rotate through the atom kinds.
		atoms := []*Type{Null, Bool, Int, Num, Str}
		return g.gen(atoms[g.next()%uint64(len(atoms))], depth)
	case KArray:
		if t.Elem == nil || t.Elem.Kind == KBottom {
			return jsonvalue.NewArray()
		}
		n := int(g.next() % 3)
		if depth <= 0 {
			n = 0
		}
		elems := make([]*jsonvalue.Value, 0, n)
		for i := 0; i < n; i++ {
			e := g.gen(t.Elem, depth-1)
			if e == nil {
				return jsonvalue.NewArray()
			}
			elems = append(elems, e)
		}
		return jsonvalue.NewArray(elems...)
	case KRecord:
		fields := make([]jsonvalue.Field, 0, len(t.Fields))
		for _, f := range t.Fields {
			if f.Optional && g.next()%2 == 0 {
				continue
			}
			v := g.gen(f.Type, depth-1)
			if v == nil {
				if f.Optional {
					continue
				}
				return nil // required field over an uninhabited type
			}
			fields = append(fields, jsonvalue.Field{Name: f.Name, Value: v})
		}
		return jsonvalue.NewObject(fields...)
	case KUnion:
		if len(t.Alts) == 0 {
			return nil
		}
		// Try alternatives starting at a seed-chosen offset, skipping
		// uninhabited branches.
		start := int(g.next() % uint64(len(t.Alts)))
		for i := 0; i < len(t.Alts); i++ {
			if v := g.gen(t.Alts[(start+i)%len(t.Alts)], depth); v != nil {
				return v
			}
		}
		return nil
	default:
		return nil
	}
}

// Inhabited reports whether the type has at least one value.
func (t *Type) Inhabited() bool {
	if t == nil {
		return false
	}
	switch t.Kind {
	case KBottom:
		return false
	case KRecord:
		for _, f := range t.Fields {
			if !f.Optional && !f.Type.Inhabited() {
				return false
			}
		}
		return true
	case KUnion:
		for _, a := range t.Alts {
			if a.Inhabited() {
				return true
			}
		}
		return false
	case KArray:
		return true // the empty array inhabits every array type
	default:
		return true
	}
}
