// absorb.go is the direct absorption surface of the accumulator: the
// fused map phase lands a document's structure straight in the union
// buckets and in-place field tables, with no intermediate canonical
// node. Absorb (accum.go) remains the *Type-consuming surface — both
// seal byte-identical to the MergeAll reference fold.
//
// The surface is transactional per document. Atoms commit instantly.
// Containers stage: a top-level array accumulates its elements in a
// staging node committed only at EndArray, and every object accumulates
// its fields in an OpenRecord committed only at EndRecord — so a
// document abandoned mid-parse (a syntax error) leaves the accumulator
// exactly as it was, once the walker aborts its open frames (an abort
// ends the document: every enclosing frame must be aborted too). Staging
// nodes and open records are pooled on the Accum and retain their
// storage — bounded by keptGroups, keptSlots and the pool-length caps
// below — so the steady state absorbs documents of seen shapes without
// allocating, and recycling a staged node costs what the document put
// into it, not what the node ever held (accumNode.reset). A document's
// record whose label set the root has no table for is held as its
// staged fields seal (EndRecord): the field table is built only when a
// second record of the label set arrives.

package typelang

import (
	"math/bits"
	"slices"
	"strings"
)

// Target addresses one accumulator node for direct absorption: the
// accumulator root (Doc), an array's element collection (BeginArray),
// or an open record's field (OpenRecord.Field). The zero Target is
// invalid; all Targets derive from Accum.Doc.
type Target struct {
	acc  *Accum
	n    *accumNode
	root bool
}

// Doc returns the document target: the accumulator root every top-level
// value is absorbed into. Absorptions through the returned Target (and
// its derived targets) interleave freely with Absorb; Seal covers both.
func (a *Accum) Doc() Target { return Target{acc: a, n: &a.node, root: true} }

// atomKinds is the kind set of the atoms AbsorbKind takes.
const atomKinds = 1<<KNull | 1<<KBool | 1<<KInt | 1<<KNum | 1<<KStr | anyKind

// AbsorbKind folds one atomic value of kind k into the target — the
// direct equivalent of absorbing Atom(k, 1). k must be an atom kind
// (KNull, KBool, KInt, KNum, KStr or KAny).
func (t Target) AbsorbKind(k Kind) {
	if atomKinds>>k&1 == 0 {
		panic("typelang: AbsorbKind on non-atom kind " + k.String())
	}
	n := t.n
	n.total++
	if n.kinds&anyKind == 0 {
		n.kinds |= 1 << k
		if k <= KStr {
			n.counts[k]++
		}
	}
	if t.root {
		t.acc.gen++
	}
}

// BeginArray opens an array value on the target and returns the target
// its elements are absorbed into. The array commits on EndArray and is
// discarded by AbortArray; exactly one of the two must follow. At the
// accumulator root the elements accumulate in a staging node so an
// abandoned document cannot pollute the schema; everywhere below the
// root the enclosing record or array frame is itself staged, so
// elements absorb in place.
func (t Target) BeginArray() Target {
	if t.root {
		a := t.acc
		if a.stageArr == nil {
			a.stageArr = &accumNode{}
		}
		return Target{acc: a, n: a.stageArr}
	}
	arr := t.n.array()
	// The elements dirty arr.elem before (and, if the document is
	// abandoned or the node collapsed to Any, without) EndArray counting
	// the array: tell reset.
	arr.opened = true
	return Target{acc: t.acc, n: &arr.elem}
}

// EndArray commits the array opened by BeginArray on t, with n the
// number of elements absorbed — the direct equivalent of absorbing
// NewArrayCounted(elem, 1, n, n).
func (t Target) EndArray(n int) {
	nd := t.n
	nd.total++
	if nd.kinds&anyKind == 0 {
		// Below the root BeginArray made nd.arr, and the elements are in
		// it already.
		nd.array().fold(1, 1, n, n)
		if t.root {
			nd.arr.elem.absorbNode(t.acc.stageArr, t.acc)
		}
	}
	if t.root {
		t.acc.stageArr.reset()
		t.acc.gen++
	}
}

// AbortArray discards the array opened by BeginArray on t (a document
// abandoned mid-parse). Below the root it is a no-op: the elements
// landed inside an enclosing staged frame whose own abort discards
// them.
func (t Target) AbortArray() {
	if t.root && t.acc.stageArr != nil {
		t.acc.stageArr.reset()
	}
}

// OpenRecord stages one object's fields until EndRecord commits them:
// group lookup (which under L needs the full label set) and the field
// table merge both happen once, at commit. Obtain with BeginRecord;
// open records are pooled on the accumulator.
type OpenRecord struct {
	acc    *Accum
	fields []stagedField
	seen   map[string]int // name -> index in fields[:len(seen)]; filled by index past smallOpenFields
}

// stagedField is one staged field slot: the name and the pooled node
// its value was absorbed into.
type stagedField struct {
	name string
	node *accumNode
}

// Shape is a record layout a walker has certified once and closes
// records with from then on (EndRecord): how many fields such a record
// stages and where each lands in name order. It does not hold the names
// — the contract is the walker's: every record closed with one Shape
// staged exactly the names NewShape was given, in that order, each once.
// A Shape is immutable, so its address identifies the label set: that
// is what lets a record group be found by pointer (byShape).
type Shape struct {
	rank   []int32 // rank[i]: where the i-th staged field lands in name order
	sorted bool    // rank is the identity: document order is name order
}

// NewShape builds the shape of the records that stage names, in that
// order. The names must be distinct.
func NewShape(names []string) *Shape {
	order := make([]int32, len(names))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	s := &Shape{rank: make([]int32, len(names)), sorted: true}
	for r, i := range order {
		if r > 0 && names[i] == names[order[r-1]] {
			panic("typelang: NewShape with duplicate name " + names[i])
		}
		s.rank[i] = int32(r)
		s.sorted = s.sorted && int(i) == r
	}
	return s
}

// smallOpenFields bounds the linear duplicate-name scan of an open
// record, mirroring the map phase's small-object threshold: below it a
// scan over the staged fields beats maintaining a map; above it the map
// keeps wide objects linear. The mode follows the record being staged,
// not the widest one the pooled OpenRecord ever held.
const smallOpenFields = 16

// Pool-length caps: what a release keeps for the next document. A
// document staging more than this many fields at once, or an object
// wider than maxPooledNodes, still absorbs; the excess goes to the
// garbage collector instead of staying pooled for good.
const (
	maxPooledNodes   = 4096
	maxPooledRecords = 1024
)

// BeginRecord opens an object value on the target. The record commits
// on EndRecord and is discarded by Abort; exactly one of the two must
// follow.
func (t Target) BeginRecord() *OpenRecord {
	a := t.acc
	if n := len(a.recPool); n > 0 {
		r := a.recPool[n-1]
		a.recPool = a.recPool[:n-1]
		return r
	}
	return &OpenRecord{acc: a}
}

// Field returns the target the named field's value is absorbed into.
// Duplicate names keep the effective last-binding view, matching the
// DOM map phase: the slot's previous absorption is discarded and the
// new value lands in its place.
func (r *OpenRecord) Field(name string) Target {
	if i := r.index(name); i >= 0 {
		n := r.fields[i].node
		n.reset()
		return Target{acc: r.acc, n: n}
	}
	return r.Stage(name)
}

// Stage is Field for a name the caller knows the record has not staged
// yet — a walker following a layout it has certified duplicate-free —
// and looks nothing up.
func (r *OpenRecord) Stage(name string) Target {
	n := r.acc.getNode()
	r.fields = append(r.fields, stagedField{name: name, node: n})
	return Target{acc: r.acc, n: n}
}

// index finds name among the staged fields: a linear scan up to
// smallOpenFields staged fields, the seen map past it — brought up to
// date here, so staging itself never writes it.
func (r *OpenRecord) index(name string) int {
	if len(r.fields) > smallOpenFields {
		if r.seen == nil {
			r.seen = make(map[string]int, 2*len(r.fields))
		}
		for i := len(r.seen); i < len(r.fields); i++ {
			r.seen[r.fields[i].name] = i
		}
		if i, ok := r.seen[name]; ok {
			return i
		}
		return -1
	}
	for i := range r.fields {
		if r.fields[i].name == name {
			return i
		}
	}
	return -1
}

// EndRecord commits the staged record into the target — the direct
// equivalent of absorbing the record type of its fields: the fields are
// put in name order, the group found under the accumulator's
// equivalence, and the staged fields merged into the group's in-place
// field table. A record staged along a layout the walker holds the
// Shape of passes it: the order is then the shape's permutation instead
// of a sort, and the group is looked for by the shape's address first.
// s is nil for any other record. At the root, a group with no table
// instead holds the record sealed from the staged fields, as Absorb
// holds a sealed one (recordAccum.held): under L most label sets of
// high-cardinality data never take a second record, and their table
// would only be sealed back into the same fields.
func (t Target) EndRecord(r *OpenRecord, s *Shape) {
	n := t.n
	n.total++
	if n.kinds&anyKind == 0 {
		if s != nil {
			t.acc.permute(r, s)
		} else if !slices.IsSortedFunc(r.fields, compareStagedNames) {
			slices.SortFunc(r.fields, compareStagedNames)
		}
		ra := n.stagedGroup(r.fields, s, t.acc)
		if s != nil {
			ra.shape = s
		}
		if t.root && ra.nrecs == 0 && len(ra.fields) == 0 {
			// A root group without a table (a new one, or a clean {} kept
			// by a reset) holds the record sealed from its staged fields.
			ra.held, ra.nrecs, ra.count = t.acc.sealStaged(r.fields), 1, 1
		} else {
			ra.absorbStaged(r.fields, t.acc)
		}
	}
	t.acc.releaseOpen(r)
	if t.root {
		t.acc.gen++
	}
}

// permute puts r's staged fields in name order by s's ranks: one pass
// through the accumulator's spare field list, which then trades places
// with the record's own. No name is compared.
func (a *Accum) permute(r *OpenRecord, s *Shape) {
	if len(r.fields) != len(s.rank) {
		panic("typelang: EndRecord with a Shape of another width")
	}
	if s.sorted {
		return
	}
	out := slices.Grow(a.spare[:0], len(r.fields))[:len(r.fields)]
	for i, sf := range r.fields {
		out[s.rank[i]] = sf
	}
	clear(r.fields)
	r.fields, a.spare = out, r.fields[:0]
}

// sealStaged is the record a group with one staged record seals to —
// each field sealed from its staged node, counted once, none optional —
// built without the field table.
func (a *Accum) sealStaged(fields []stagedField) *Type {
	var fs []Field
	if len(fields) > 0 {
		fs = make([]Field, len(fields))
	}
	for i := range fields {
		fs[i] = Field{Name: fields[i].name, Type: fields[i].node.seal(a.equiv), Count: 1}
	}
	return &Type{Kind: KRecord, Fields: fs, Count: 1}
}

// Abort discards the staged record (a document abandoned mid-parse),
// returning it to the pool.
func (r *OpenRecord) Abort() { r.acc.releaseOpen(r) }

func compareStagedNames(a, b stagedField) int { return strings.Compare(a.name, b.name) }

// stagedGroup finds (or creates) the group the staged record fuses
// into: K's one group, the group of its shape, or the group of its
// label key, rendered into the accumulator's scratch buffer.
func (n *accumNode) stagedGroup(fields []stagedField, s *Shape, a *Accum) *recordAccum {
	if a.equiv == EquivKind {
		return n.kindGroup()
	}
	if ra := n.byShape(s); ra != nil {
		return ra
	}
	b := a.keyBuf[:0]
	for i := range fields {
		b = appendLabel(b, fields[i].name)
	}
	a.keyBuf = b
	return n.groupByKey(b)
}

// byShape finds the group that last took a record, or a group, of shape
// s (recordAccum.shape), on the linear scan only: a node past
// smallRecordGroups looks up by key. It is sound under L because a
// Shape stands for one label set for good, and so does a group's key
// (recordAccum).
func (n *accumNode) byShape(s *Shape) *recordAccum {
	if s == nil || n.recIndex != nil {
		return nil
	}
	for _, ra := range n.recs {
		if ra.shape == s {
			return n.activate(ra)
		}
	}
	return nil
}

// absorbStaged merges the staged (sorted, duplicate-free) fields of one
// record into the group: each staged field bumps its slot and absorbs
// its staged node in place, with no canonical detour. Under L the group
// was found by the record's label set, so the walk zips.
func (ra *recordAccum) absorbStaged(fields []stagedField, a *Accum) {
	w := ra.take(1, 1, len(fields), a.equiv == EquivLabel, a)
	for j := range fields {
		fa := w.slot(fields[j].name)
		fa.count++
		fa.seenIn++
		fa.node.absorbNode(fields[j].node, a)
	}
}

// getNode takes a (reset, empty) node from the staging pool.
func (a *Accum) getNode() *accumNode {
	if n := len(a.nodePool); n > 0 {
		nd := a.nodePool[n-1]
		a.nodePool = a.nodePool[:n-1]
		return nd
	}
	return &accumNode{}
}

// releaseOpen returns an open record and its staged nodes to their
// pools, reset (storage retained, within the caps) so the next document
// of the same shape stages without allocating.
func (a *Accum) releaseOpen(r *OpenRecord) {
	k := len(r.fields)
	for i := range r.fields {
		n := r.fields[i].node
		r.fields[i] = stagedField{}
		if len(a.nodePool) < maxPooledNodes {
			n.reset()
			a.nodePool = append(a.nodePool, n)
		}
	}
	if len(r.seen) > 0 {
		clear(r.seen)
	}
	if k > maxPooledNodes {
		r.fields, r.seen = nil, nil
	}
	r.fields = r.fields[:0]
	if len(a.recPool) < maxPooledRecords {
		a.recPool = append(a.recPool, r)
	}
}

// absorbNode folds one accumulator node into another — the accumulator
// twin of absorb(t): absorbing src is equivalent to absorbing src's
// seal, bucket by bucket, with no canonical node in between. It is the
// commit step of the staged containers above, so src is staging, which
// only the Target surface fills and which therefore holds no record
// (recordAccum.held); dst may, and take unholds it.
func (dst *accumNode) absorbNode(src *accumNode, a *Accum) {
	dst.total += src.total
	if (dst.kinds|src.kinds)&anyKind != 0 {
		dst.kinds |= anyKind
		return
	}
	dst.kinds |= src.kinds
	for s := src.kinds; s != 0; s &= s - 1 {
		k := bits.TrailingZeros16(s)
		dst.counts[k] += src.counts[k]
	}
	if sa := src.arr; sa != nil && sa.n > 0 {
		da := dst.array()
		da.fold(sa.n, sa.count, sa.minLen, sa.maxLen)
		da.elem.absorbNode(&sa.elem, a)
	}
	for _, sra := range src.recs[:src.live] {
		dra := dst.accumGroup(sra, a)
		if sra.shape != nil {
			dra.shape = sra.shape
		}
		// Counts, seen totals and optionality flags add, exactly as
		// absorbing the source's sealed record would.
		w := dra.take(sra.nrecs, sra.count, len(sra.fields), a.equiv == EquivLabel, a)
		for j := range sra.fields {
			sf := &sra.fields[j]
			if sf.seenIn == 0 {
				continue // clean slot of a K group
			}
			fa := w.slot(sf.name)
			fa.count += sf.count
			fa.optional = fa.optional || sf.optional
			fa.seenIn += sf.seenIn
			fa.node.absorbNode(&sf.node, a)
		}
	}
}

// accumGroup finds (or creates) the group a source record group fuses
// into: K's one group, the group of the shape the source last took a
// record of (it travels with the source), or the group of the source's
// label key.
func (n *accumNode) accumGroup(src *recordAccum, a *Accum) *recordAccum {
	if a.equiv == EquivKind {
		return n.kindGroup()
	}
	if ra := n.byShape(src.shape); ra != nil {
		return ra
	}
	a.keyBuf = append(a.keyBuf[:0], src.key...)
	return n.groupByKey(a.keyBuf)
}
