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

// AbsorbKind folds one atomic value of kind k into the target — the
// direct equivalent of absorbing Atom(k, 1). k must be an atom kind
// (KNull, KBool, KInt, KNum, KStr or KAny).
func (t Target) AbsorbKind(k Kind) {
	n := t.n
	n.total++
	if !n.haveAny {
		switch k {
		case KNull:
			n.haveNull = true
			n.nullCount++
		case KBool:
			n.haveBool = true
			n.boolCount++
		case KInt:
			n.haveInt = true
			n.intCount++
		case KNum:
			n.haveNum = true
			n.numCount++
		case KStr:
			n.haveStr = true
			n.strCount++
		case KAny:
			n.haveAny = true
		default:
			panic("typelang: AbsorbKind on non-atom kind " + k.String())
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
	n := t.n
	if n.arr == nil {
		n.arr = &arrayAccum{}
	}
	// The elements dirty arr.elem before (and, if the document is
	// abandoned or n collapsed to Any, without) EndArray counting the
	// array: tell reset.
	n.arr.opened = true
	return Target{acc: t.acc, n: &n.arr.elem}
}

// EndArray commits the array opened by BeginArray on t, with n the
// number of elements absorbed — the direct equivalent of absorbing
// NewArrayCounted(elem, 1, n, n).
func (t Target) EndArray(n int) {
	nd := t.n
	nd.total++
	if t.root {
		a := t.acc
		if !nd.haveAny {
			if nd.arr == nil {
				nd.arr = &arrayAccum{}
			}
			nd.arr.extend(n)
			nd.arr.elem.absorbNode(a.stageArr, a)
		}
		a.stageArr.reset()
		a.gen++
		return
	}
	if nd.haveAny {
		return
	}
	// nd.arr exists: BeginArray activated it.
	nd.arr.extend(n)
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

// extend folds one directly-absorbed array of n elements into the
// bucket's length bounds and counts.
func (a *arrayAccum) extend(n int) {
	if a.n == 0 {
		a.minLen, a.maxLen = n, n
	} else {
		if n < a.minLen {
			a.minLen = n
		}
		if a.maxLen != -1 && n > a.maxLen {
			a.maxLen = n
		}
	}
	a.n++
	a.count++
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
	if !n.haveAny {
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
			ra.nrecs++
			ra.count++
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
// into — recordGroup's staged twin, except the label key is built in
// the accumulator's scratch buffer so the common lookup allocates
// nothing (the real key string is made only when a new group is born),
// and a record closed with a Shape is looked for by that first.
func (n *accumNode) stagedGroup(fields []stagedField, s *Shape, a *Accum) *recordAccum {
	if a.equiv == EquivKind {
		return n.kindGroup()
	}
	if ra := n.byShape(s); ra != nil {
		return ra
	}
	if n.recIndex != nil {
		key := a.stagedKey(fields)
		if ra := n.recIndex[string(key)]; ra != nil {
			return n.activate(ra)
		}
		return n.newGroup(string(key))
	}
	for _, ra := range n.recs {
		if ra.sameStagedLabels(fields) {
			return n.activate(ra)
		}
	}
	return n.newGroup(string(a.stagedKey(fields)))
}

// byShape finds the group that last took a record, or a group, of shape
// s (recordAccum.shape), on the linear scan only: a node past
// smallRecordGroups looks up by key. It is sound under L because a
// Shape stands for one label set for good and so does a group — its
// table is its label set from its first record on, resets included
// (sameLabels).
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

// stagedKey renders the staged label set exactly as labelKey does, into
// the accumulator's scratch buffer.
func (a *Accum) stagedKey(fields []stagedField) []byte {
	b := a.keyBuf[:0]
	for i := range fields {
		b = appendLabel(b, fields[i].name)
	}
	a.keyBuf = b
	return b
}

// sameStagedLabels is sameLabels over a staged field list; the same
// L-invariant argument applies (the table is exactly the label set, or
// the group holds a record of it). The held case is a plain loop, not
// slices.EqualFunc: the closure would stop this inlining into the
// linear group scan, which every unshaped record takes.
func (ra *recordAccum) sameStagedLabels(fields []stagedField) bool {
	if ra.held != nil {
		hf := ra.held.Fields
		if len(hf) != len(fields) {
			return false
		}
		for i := range fields {
			if hf[i].Name != fields[i].name {
				return false
			}
		}
		return true
	}
	if len(ra.fields) != len(fields) {
		return false
	}
	for i := range fields {
		if ra.fields[i].name != fields[i].name {
			return false
		}
	}
	return true
}

// absorbStaged merges the staged (sorted, duplicate-free) fields into
// the group's field table — recordAccum.absorb without the canonical
// detour: each staged field bumps its slot and absorbs its staged node
// in place. Under L a group that has its table was found by its label
// set and the table is that set, so the two lists are aligned and no
// name is compared; a group just born, and the one group of K, take the
// merge walk. A held group first spreads its record into the table.
func (ra *recordAccum) absorbStaged(fields []stagedField, a *Accum) {
	if ra.held != nil {
		ra.unhold(a)
	}
	fs := ra.fields
	if a.equiv == EquivLabel && len(fs) == len(fields) {
		for j := range fields {
			fa := &fs[j]
			fa.count++
			fa.seenIn++
			fa.node.absorbNode(fields[j].node, a)
		}
		return
	}
	i := 0
	for j := range fields {
		sf := &fields[j]
		for i < len(fs) && fs[i].name < sf.name {
			i++
		}
		if i == len(fs) || fs[i].name != sf.name {
			fs = slices.Insert(fs, i, fieldAccum{name: sf.name})
			ra.keyValid = false
		}
		fa := &fs[i]
		fa.count++
		fa.seenIn++
		fa.node.absorbNode(sf.node, a)
		i++
	}
	ra.fields = fs
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
// only the Target surface fills and which therefore holds no group; dst
// may (absorbAccum unholds).
func (dst *accumNode) absorbNode(src *accumNode, a *Accum) {
	dst.total += src.total
	if dst.haveAny {
		return
	}
	if src.haveAny {
		dst.haveAny = true
		return
	}
	if src.haveNull {
		dst.haveNull = true
		dst.nullCount += src.nullCount
	}
	if src.haveBool {
		dst.haveBool = true
		dst.boolCount += src.boolCount
	}
	if src.haveInt {
		dst.haveInt = true
		dst.intCount += src.intCount
	}
	if src.haveNum {
		dst.haveNum = true
		dst.numCount += src.numCount
	}
	if src.haveStr {
		dst.haveStr = true
		dst.strCount += src.strCount
	}
	if src.arr != nil && src.arr.n > 0 {
		if dst.arr == nil {
			dst.arr = &arrayAccum{}
		}
		dst.arr.absorbNodeArr(src.arr, a)
	}
	for _, sra := range src.recs[:src.live] {
		dra := dst.accumGroup(sra, a.equiv)
		if sra.shape != nil {
			dra.shape = sra.shape
		}
		dra.nrecs += sra.nrecs
		dra.count += sra.count
		dra.absorbAccum(sra, a)
	}
}

// absorbNodeArr folds one array bucket into another.
func (a *arrayAccum) absorbNodeArr(src *arrayAccum, acc *Accum) {
	if a.n == 0 {
		a.minLen, a.maxLen = src.minLen, src.maxLen
	} else {
		if src.minLen < a.minLen {
			a.minLen = src.minLen
		}
		if src.maxLen == -1 || a.maxLen == -1 {
			a.maxLen = -1
		} else if src.maxLen > a.maxLen {
			a.maxLen = src.maxLen
		}
	}
	a.n += src.n
	a.count += src.count
	a.elem.absorbNode(&src.elem, acc)
}

// accumGroup finds (or creates) the group a source record group fuses
// into: by the shape the source last took a record of, which travels
// with it, else by label set. Under L the source's label key doubles as
// the lookup key: a live group's field table is exactly its label set
// on both sides.
func (n *accumNode) accumGroup(src *recordAccum, e Equiv) *recordAccum {
	if e == EquivKind {
		return n.kindGroup()
	}
	if ra := n.byShape(src.shape); ra != nil {
		return ra
	}
	if n.recIndex != nil {
		key := src.labelKey()
		if ra := n.recIndex[key]; ra != nil {
			return n.activate(ra)
		}
		return n.newGroup(key)
	}
	for _, ra := range n.recs {
		if ra.sameAccumLabels(src) {
			return n.activate(ra)
		}
	}
	return n.newGroup(src.labelKey())
}

// sameAccumLabels compares a group's label set with a live group's (a
// staged one, which holds nothing).
func (ra *recordAccum) sameAccumLabels(src *recordAccum) bool {
	if ra.held != nil {
		hf := ra.held.Fields
		if len(hf) != len(src.fields) {
			return false
		}
		for i := range hf {
			if hf[i].Name != src.fields[i].name {
				return false
			}
		}
		return true
	}
	if len(ra.fields) != len(src.fields) {
		return false
	}
	for i := range ra.fields {
		if ra.fields[i].name != src.fields[i].name {
			return false
		}
	}
	return true
}

// absorbAccum merges one record group into another: absorbStaged
// generalised to counted slots — counts, seen totals and optionality
// flags add, exactly as absorbing the source's sealed record would —
// with the same aligned zip under L, after unholding a held group.
func (ra *recordAccum) absorbAccum(src *recordAccum, a *Accum) {
	if ra.held != nil {
		ra.unhold(a)
	}
	fs := ra.fields
	if a.equiv == EquivLabel && len(fs) == len(src.fields) {
		for j := range src.fields {
			fa, sf := &fs[j], &src.fields[j]
			fa.count += sf.count
			fa.optional = fa.optional || sf.optional
			fa.seenIn += sf.seenIn
			fa.node.absorbNode(&sf.node, a)
		}
		return
	}
	i := 0
	for j := range src.fields {
		sf := &src.fields[j]
		if sf.seenIn == 0 {
			continue // clean slot of a K group
		}
		for i < len(fs) && fs[i].name < sf.name {
			i++
		}
		if i == len(fs) || fs[i].name != sf.name {
			fs = slices.Insert(fs, i, fieldAccum{name: sf.name})
			ra.keyValid = false
		}
		fa := &fs[i]
		fa.count += sf.count
		fa.optional = fa.optional || sf.optional
		fa.seenIn += sf.seenIn
		fa.node.absorbNode(&sf.node, a)
		i++
	}
	ra.fields = fs
}

// retained is a census of the storage an accumulator's staging pools
// hold between documents: none of it is schema state, all of it is
// clean (deeply zero) and kept only so the next document stages without
// allocating.
type retained struct {
	PooledNodes   int // staging nodes in the pool, plus the root-array staging node
	PooledRecords int // open records in the pool
	Nodes         int // accumulator nodes nested below the pooled ones (array elements, field slots)
	Groups        int // clean record groups inside the pooled nodes, at any depth
	Slots         int // clean field slots inside those groups
}

// retained walks the staging pools and counts what they hold. It is
// read-only and costs the size of the retained storage, so it is meant
// for gauges and tests, not for the absorb path; call it between
// documents, from the goroutine that owns the accumulator.
func (a *Accum) retained() retained {
	r := retained{PooledNodes: len(a.nodePool), PooledRecords: len(a.recPool)}
	for _, n := range a.nodePool {
		n.census(&r)
	}
	if a.stageArr != nil {
		r.PooledNodes++
		a.stageArr.census(&r)
	}
	return r
}

// census adds the storage retained below n (n itself excluded).
func (n *accumNode) census(r *retained) {
	if n.arr != nil {
		r.Nodes++
		n.arr.elem.census(r)
	}
	r.Groups += len(n.recs) - n.live
	for _, ra := range n.recs {
		for i := range ra.fields {
			fa := &ra.fields[i]
			if fa.seenIn == 0 {
				r.Slots++
			}
			r.Nodes++
			fa.node.census(r)
		}
	}
}
