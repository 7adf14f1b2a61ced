package typelang

// Subtype reports whether every value of a is a value of b (a <: b).
// The check is sound but, as usual for union types, incomplete in one
// direction: a union on the left must have every alternative covered,
// while coverage on the right is witnessed alternative-by-alternative
// (no cross-alternative distribution). This matches the subtyping
// discussion of §3: record width/depth subtyping plus union
// introduction, with Int <: Num.
func Subtype(a, b *Type) bool {
	if a == nil {
		return true
	}
	if b == nil {
		return a.Kind == KBottom
	}
	switch {
	case a.Kind == KBottom:
		return true
	case b.Kind == KAny:
		return true
	case a.Kind == KAny:
		return false // b != Any here
	case a.Kind == KUnion:
		for _, alt := range a.Alts {
			if !Subtype(alt, b) {
				return false
			}
		}
		return true
	case b.Kind == KUnion:
		for _, alt := range b.Alts {
			if Subtype(a, alt) {
				return true
			}
		}
		return false
	}
	switch a.Kind {
	case KNull, KBool, KStr, KNum:
		return a.Kind == b.Kind
	case KInt:
		return b.Kind == KInt || b.Kind == KNum
	case KArray:
		if b.Kind != KArray {
			return false
		}
		return Subtype(a.Elem, b.Elem)
	case KRecord:
		if b.Kind != KRecord {
			return false
		}
		return recordSubtype(a, b)
	default:
		return false
	}
}

// recordSubtype implements closed-record subtyping:
//   - every field a may exhibit must be admitted by b with a subtype
//     type (values of a carry only a's fields, and b is closed, so
//     names(a) ⊆ names(b));
//   - every field b requires must be required by a (otherwise a admits
//     a value lacking it).
func recordSubtype(a, b *Type) bool {
	for _, af := range a.Fields {
		bf, ok := b.Get(af.Name)
		if !ok {
			return false
		}
		if !Subtype(af.Type, bf.Type) {
			return false
		}
		if af.Optional && !bf.Optional {
			return false
		}
	}
	for _, bf := range b.Fields {
		if bf.Optional {
			continue
		}
		af, ok := a.Get(bf.Name)
		if !ok || af.Optional {
			return false
		}
	}
	return true
}
