package typelang

import (
	"slices"
	"sort"
	"strings"
)

// Equiv selects the equivalence relation that parameterises the merge,
// after the parametric schema inference of Baazizi et al. (EDBT'17,
// VLDBJ'19): merging is the least upper bound in a lattice where
// equivalent types fuse and inequivalent ones accumulate in a union.
type Equiv uint8

const (
	// EquivKind (K) deems any two records equivalent (and any two
	// arrays): the inferred schema has at most one record type per
	// union, with optional fields — maximal fusion, smallest schemas,
	// coarsest abstraction.
	EquivKind Equiv = iota
	// EquivLabel (L) deems records equivalent only when they have the
	// same label set: distinct record layouts stay separate union
	// alternatives — finer abstraction, larger schemas.
	EquivLabel
)

// String names the equivalence as in the papers.
func (e Equiv) String() string {
	if e == EquivLabel {
		return "L"
	}
	return "K"
}

// Merge returns the least upper bound of a and b under equivalence e.
// It is commutative and associative on arbitrary inputs, and
// idempotent up to counts (structural equality ignores counts) on
// canonical inputs — types already in e's canonical form, which
// everything this package and the inference map phase produce. A
// non-canonical input (say, a hand-built union of two records under
// K) is deeply canonicalised whenever fusion touches it, but a lone
// alternative is reused as-is: that reuse is what keeps the
// collection fold O(changed part) per document, and it is why
// idempotence needs the canonical precondition.
func Merge(a, b *Type, e Equiv) *Type {
	alts := make([]*Type, 0, 4)
	alts = appendAlts(alts, a)
	alts = appendAlts(alts, b)
	return canonical(alts, e)
}

// MergeAll folds Merge over a slice.
func MergeAll(ts []*Type, e Equiv) *Type {
	alts := make([]*Type, 0, len(ts))
	for _, t := range ts {
		alts = appendAlts(alts, t)
	}
	return canonical(alts, e)
}

func appendAlts(dst []*Type, t *Type) []*Type {
	switch {
	case t == nil || t.Kind == KBottom:
		return dst
	case t.Kind == KUnion:
		return append(dst, t.Alts...)
	default:
		return append(dst, t)
	}
}

// canonical buckets a flat alternative list into the canonical union.
func canonical(alts []*Type, e Equiv) *Type {
	if len(alts) == 0 {
		return Bottom
	}
	var (
		anyCount           int64
		haveAny            bool
		nullT, boolT, strT *Type
		intCount, numCount int64
		haveInt, haveNum   bool
		arrays             []*Type
		records            []*Type
	)
	for _, t := range alts {
		switch t.Kind {
		case KAny:
			haveAny = true
			anyCount += totalCount(t)
		case KNull:
			nullT = mergeAtom(nullT, t)
		case KBool:
			boolT = mergeAtom(boolT, t)
		case KStr:
			strT = mergeAtom(strT, t)
		case KInt:
			haveInt = true
			intCount += t.Count
		case KNum:
			haveNum = true
			numCount += t.Count
		case KArray:
			arrays = append(arrays, t)
		case KRecord:
			records = append(records, t)
		}
	}
	if haveAny {
		total := anyCount
		for _, t := range alts {
			if t.Kind != KAny {
				total += totalCount(t)
			}
		}
		return &Type{Kind: KAny, Count: total}
	}
	out := make([]*Type, 0, 6)
	if nullT != nil {
		out = append(out, nullT)
	}
	if boolT != nil {
		out = append(out, boolT)
	}
	// Num absorbs Int: Int values are Num values, so Int + Num = Num.
	switch {
	case haveNum:
		out = append(out, &Type{Kind: KNum, Count: intCount + numCount})
	case haveInt:
		out = append(out, &Type{Kind: KInt, Count: intCount})
	}
	if strT != nil {
		out = append(out, strT)
	}
	if len(records) > 0 {
		out = append(out, mergeRecords(records, e)...)
	}
	if len(arrays) > 0 {
		out = append(out, mergeArrays(arrays, e))
	}
	if len(out) == 1 {
		return out[0]
	}
	slices.SortStableFunc(out, func(a, b *Type) int { return strings.Compare(altKey(a), altKey(b)) })
	var total int64
	for _, t := range out {
		total += totalCount(t)
	}
	return &Type{Kind: KUnion, Alts: out, Count: total}
}

func totalCount(t *Type) int64 { return t.Count }

func mergeAtom(acc, t *Type) *Type {
	if acc == nil {
		c := *t
		return &c
	}
	return &Type{Kind: acc.Kind, Count: acc.Count + t.Count}
}

// mergeArrays fuses all array alternatives into one (arrays are always
// equivalent under both K and L; the papers' equivalences act on
// records).
func mergeArrays(arrays []*Type, e Equiv) *Type {
	if len(arrays) == 1 {
		// Types are immutable: a lone alternative needs no rebuild.
		// This keeps the collection fold O(changed part), not
		// O(whole accumulated schema), per document.
		return arrays[0]
	}
	elems := make([]*Type, 0, len(arrays))
	var count int64
	minLen, maxLen := arrays[0].MinLen, arrays[0].MaxLen
	for _, a := range arrays {
		elems = appendAlts(elems, a.Elem)
		count += a.Count
		if a.MinLen < minLen {
			minLen = a.MinLen
		}
		if a.MaxLen == -1 || maxLen == -1 {
			maxLen = -1
		} else if a.MaxLen > maxLen {
			maxLen = a.MaxLen
		}
	}
	return &Type{Kind: KArray, Elem: canonical(elems, e), Count: count, MinLen: minLen, MaxLen: maxLen}
}

// mergeRecords fuses record alternatives according to e.
func mergeRecords(records []*Type, e Equiv) []*Type {
	if len(records) == 1 {
		return records[:1]
	}
	if e == EquivKind {
		return []*Type{fuseRecords(records, e)}
	}
	// EquivLabel: group by label set.
	groups := make(map[string][]*Type)
	var keys []string
	for _, r := range records {
		k := labelKey(r)
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Strings(keys)
	out := make([]*Type, 0, len(keys))
	for _, k := range keys {
		if group := groups[k]; len(group) == 1 {
			out = append(out, group[0]) // immutable: reuse unchanged alternative
		} else {
			out = append(out, fuseRecords(groups[k], e))
		}
	}
	return out
}

// labelKey is the record's label set rendered canonically: every name
// followed by a NUL. The rendering is injective — {} is "" and {"": 1}
// is "\x00", where joining names with NUL gave both "" — and keys order
// as their name lists do, so the canonical order of a union's records
// is the order of their label sets.
func labelKey(r *Type) string {
	var b []byte
	for i := range r.Fields {
		b = appendLabel(b, r.Fields[i].Name)
	}
	return string(b)
}

// appendLabel appends one name of a label key and its terminator. A NUL
// inside a name is written 01 01 and a 01 byte 01 02, so no name holds
// the terminator and the escaping keeps the order of names.
func appendLabel(b []byte, name string) []byte {
	from := 0
	for i := 0; i < len(name); i++ {
		if c := name[i]; c <= 1 {
			b = append(append(b, name[from:i]...), 1, c+1)
			from = i + 1
		}
	}
	return append(append(b, name[from:]...), 0)
}

// fuseRecords merges records field-wise: shared fields merge their
// types recursively; one-sided fields become optional.
func fuseRecords(records []*Type, e Equiv) *Type {
	type slot struct {
		types    []*Type
		count    int64
		optional bool
		seenIn   int // number of records containing the field
	}
	slots := make(map[string]*slot)
	var order []string
	var recCount int64
	for _, r := range records {
		recCount += r.Count
		for _, f := range r.Fields {
			s := slots[f.Name]
			if s == nil {
				s = &slot{}
				slots[f.Name] = s
				order = append(order, f.Name)
			}
			s.types = append(s.types, f.Type)
			s.count += f.Count
			s.optional = s.optional || f.Optional
			s.seenIn++
		}
	}
	fields := make([]Field, 0, len(order))
	for _, name := range order {
		s := slots[name]
		fields = append(fields, Field{
			Name:     name,
			Type:     MergeAll(s.types, e),
			Optional: s.optional || s.seenIn < len(records),
			Count:    s.count,
		})
	}
	t := NewRecord(fields...)
	t.Count = recCount
	return t
}

// altKey orders union alternatives canonically: atoms by kind, then
// records by label set, then arrays.
func altKey(t *Type) string {
	switch t.Kind {
	case KNull:
		return "0"
	case KBool:
		return "1"
	case KInt:
		return "2"
	case KNum:
		return "3"
	case KStr:
		return "4"
	case KRecord:
		return "5:" + labelKey(t)
	case KArray:
		return "6"
	default:
		return "7"
	}
}
