// accum.go is the mutable fold core: an open schema accumulator that
// absorbs document types in place and seals to the canonical immutable
// union on demand. Merge/MergeAll (merge.go) remain the reference
// implementation; Accum is the hot-path engine the streamed inference
// fold runs on.

package typelang

import (
	"math/bits"
	"slices"
	"strings"
)

// Accum is a mutable schema accumulator: the open (non-canonical on
// every step) counterpart of the Merge fold. Absorb folds one canonical
// *Type in without rebuilding the union — records are tracked through a
// sorted field table that is merged in place, union alternatives stay
// pre-classified in per-kind buckets, and counts are bumped on the
// buckets instead of allocating fresh nodes — and Seal produces the
// canonical immutable *Type, byte-identical (same rendering, same
// counts) to folding the same types through MergeAll.
//
// The accumulator exists because the reduce used to dominate the
// allocation profile of streamed inference: every batched MergeAll
// rebuilt the canonical union — fresh alternative slices, re-sorted
// field lists, new nodes — even when the accumulated schema had long
// stopped changing shape. Absorbing into an Accum is allocation-free
// once the schema shape has been seen, and the canonicalisation cost is
// paid once per Seal instead of once per merge.
//
// Inputs must be canonical, exactly as Merge requires: types produced
// by this package's constructors, by Merge/MergeAll, by Seal itself, or
// by the inference map phase. Seal results never alias accumulator
// state; they may share immutable nodes with absorbed sealed types (a
// record whose label set was absorbed once is handed back as it came,
// exactly as MergeAll reuses a lone alternative) and with the package:
// every atom counted once is its kind's one shared node, in every seal
// of every accumulator. Sealed types are therefore immutable — code
// that wants a changed node copies it first, as Simplify and Merge do —
// and a sealed type may be published to other goroutines while the
// accumulator keeps absorbing. An Accum itself is not safe for
// concurrent use.
//
// The zero Accum is NOT ready to use; construct with NewAccum so the
// equivalence is explicit.
type Accum struct {
	equiv Equiv

	// gen counts mutations; sealGen/sealed memoise the last Seal so
	// snapshot-heavy callers (collector shards, the registry) re-seal
	// only after new documents arrived.
	gen     uint64
	sealGen uint64
	sealed  *Type

	node accumNode

	// Direct-absorption staging (absorb.go): the root-array element
	// staging node, the pools of staged field nodes and open records,
	// the scratch label-key buffer (group lookup by key, here and in
	// absorb.go) and the spare field list a shaped record is put in name
	// order through — retained across documents and Resets, up to
	// keptGroups and keptSlots, so steady-state absorption allocates
	// nothing.
	stageArr *accumNode
	nodePool []*accumNode
	recPool  []*OpenRecord
	keyBuf   []byte
	spare    []stagedField
}

// NewAccum returns an empty accumulator folding under equivalence e.
// Sealing it before any Absorb yields Bottom.
func NewAccum(e Equiv) *Accum { return &Accum{equiv: e} }

// Absorb folds one type into the accumulator: the in-place equivalent
// of acc = Merge(acc, t, equiv). t must be canonical; nil and Bottom
// are no-ops.
func (a *Accum) Absorb(t *Type) {
	if t == nil || t.Kind == KBottom {
		return
	}
	a.node.absorb(t, a)
	a.gen++
}

// Seal returns the canonical type of everything absorbed so far —
// byte-identical to MergeAll over the same types — building immutable
// nodes that never alias accumulator state and may share immutable
// nodes with absorbed sealed types. Seals are memoised: calling Seal
// repeatedly without intervening Absorbs returns the same *Type without
// rebuilding.
func (a *Accum) Seal() *Type {
	if a.sealed != nil && a.sealGen == a.gen {
		return a.sealed
	}
	a.sealed = a.node.seal(a.equiv)
	a.sealGen = a.gen
	return a.sealed
}

// SameStructure reports whether a seal now would give t's structure —
// the same alternatives, labels, optionality and element types; counts
// and array bounds aside — for a t this accumulator sealed since its
// last Reset. It seals and allocates nothing: the sharded collector
// asks it whether a shard's structure moved.
//
// The walk pairs each node with t's the way seal builds them, exactly:
// a seal sorts a node's live groups in place and groups are only ever
// appended (until a Reset), so a node with as many groups as t has
// record alternatives holds t's groups in t's order; a group still held
// matches by pointer; one that took its second record since compares
// field by field, its table spread from the held record.
func (a *Accum) SameStructure(t *Type) bool {
	if t == a.sealed && a.sealGen == a.gen {
		return true
	}
	return a.node.sameStructure(t)
}

// Reset empties the accumulator for reuse, retaining the bucket and
// field-table storage of the shapes it has seen — up to keptGroups and
// keptSlots, the most recently live groups first — so a worker absorbing
// similar chunks allocates nothing on the next round. Its cost is the
// size of what was absorbed since the previous Reset, not of what is
// retained. Previously sealed types remain valid (they never alias
// accumulator state, and the absorbed sealed types they may share are
// immutable).
func (a *Accum) Reset() {
	a.node.reset()
	if a.stageArr != nil {
		// Defensive: direct absorption aborts its own staging, but a
		// Reset must leave no residue regardless of how the previous
		// round ended.
		a.stageArr.reset()
	}
	a.gen++
	a.sealed = nil
}

// accumNode is one level of accumulator state: the union alternatives
// kept pre-classified by kind, mirroring the buckets canonical()
// rebuilds on every merge. Atoms are a kind set plus a count per kind;
// the array bucket and record groups recurse.
type accumNode struct {
	// total is the sum of the top-level counts of every absorbed
	// alternative — the count of the sealed union, and of the sealed Any
	// when an Any alternative collapsed the node.
	total int64

	// kinds is the set of atom kinds absorbed, bit k for Kind k, and
	// counts[k] how many values of kind k. Once KAny is in the set the
	// node is Any, and only total, its count, is kept up.
	kinds  uint16
	counts [KStr + 1]int64

	arr *arrayAccum

	// recs are the record groups: exactly one under K (records always
	// fuse); one per label set under L, sorted by label key at seal.
	// recs[:live] are the groups that absorbed a record since the last
	// reset; recs[live:] are clean groups kept only so the next round
	// can reuse their storage (see reset). Everything that reads the
	// node — seal, empty, absorbNode — walks the live prefix only.
	// Lookup by label key (groupByKey) is a linear scan while the groups
	// are few (the common case; keys differ in length most of the time,
	// and the groups of the previous round sit at the front) and switches
	// to recIndex, a label-key map over all of recs, past
	// smallRecordGroups — the hashed grouping the reference fold uses, so
	// high-cardinality L data stays linear in documents instead of going
	// quadratic in groups.
	recs     []*recordAccum
	live     int
	recIndex map[string]*recordAccum
}

// smallRecordGroups bounds the linear group scan under L: below it the
// scan beats hashing the key; above it the map keeps group lookup
// O(fields) no matter how many label sets the data holds.
const smallRecordGroups = 16

// arrayAccum accumulates the array alternatives of one node: arrays
// always fuse (both equivalences act on records), so this is one count,
// the observed length bounds, and the element-collection accumulator.
type arrayAccum struct {
	n int // arrays absorbed since the last reset
	// opened marks a direct-absorption BeginArray below the root since
	// the last reset: elem may hold elements although n is still 0 (the
	// array was abandoned, or the node had collapsed to Any).
	opened         bool
	count          int64
	minLen, maxLen int
	elem           accumNode
}

// recordAccum accumulates one record group: the field table kept sorted
// by name and merged in place, the record count, and how many records
// were absorbed (nrecs — the denominator of the optionality rule: a
// field absent from any absorbed record is optional).
//
// Under L a group's key, rendered from the label set of the record that
// opened it (newGroup), is its label set for good: a held group's is
// its held record's, a table group's is its table, and a clean group is
// only ever found again by that key or by a shape of that label set.
// Under K the one group's key is empty and never read.
//
// A group that Absorb opened with a sealed record is held: it keeps
// that record (held) and no field table, and seals to it unchanged —
// types are immutable, and sealing an absorbed canonical record gives
// it back. So is a root group a staged record opened (EndRecord): it
// holds the record its staged fields seal to. Under L, where
// high-cardinality data gives about one group per document, most
// groups never take a second record, so neither the map phase nor a
// reduce over sealed partial schemas builds a table for them. The
// second record of the label set, however it arrives, first spreads the
// held one into the table (unhold). A reset turns a held group into a
// clean table of its label set, or drops it (reset).
type recordAccum struct {
	key    string // the label key (appendLabel) of the group's label set
	shape  *Shape // of the last shaped record (or group) taken, nil if none: the pointer lookup of byShape
	pos    int    // index in the owning node's recs
	nrecs  int
	count  int64
	fields []fieldAccum
	held   *Type // the group's one record while it is held, else nil
}

// fieldAccum is one field slot of a record group. seenIn counts the
// absorbed records containing the field; a slot with seenIn == 0 is
// clean storage kept only so a later round can reuse it (only a K group
// holds such slots next to live ones).
type fieldAccum struct {
	name     string
	count    int64
	optional bool
	seenIn   int
	node     accumNode
}

// anyKind is the kind set bit of KAny: a node holding it is Any.
const anyKind = 1 << KAny

func (n *accumNode) absorb(t *Type, a *Accum) {
	if t == nil {
		return
	}
	if t.Kind == KUnion {
		for _, alt := range t.Alts {
			n.absorb(alt, a)
		}
		return
	}
	if t.Kind == KBottom {
		return
	}
	n.total += t.Count
	if n.kinds&anyKind != 0 {
		// Any absorbs everything; only the count matters from here on.
		return
	}
	switch t.Kind {
	case KArray:
		arr := n.array()
		arr.fold(1, t.Count, t.MinLen, t.MaxLen)
		arr.elem.absorb(t.Elem, a)
	case KRecord:
		var ra *recordAccum
		if a.equiv == EquivKind {
			ra = n.kindGroup()
		} else {
			b := a.keyBuf[:0]
			for i := range t.Fields {
				b = appendLabel(b, t.Fields[i].Name)
			}
			a.keyBuf = b
			ra = n.groupByKey(b)
		}
		if ra.nrecs == 0 && len(ra.fields) == 0 && sortedLabels(t.Fields) {
			// A group without a table (a new one, or a clean {} kept
			// by a reset) takes a sealed record as it is.
			ra.held, ra.nrecs, ra.count = t, 1, t.Count
			return
		}
		ra.absorbFields(1, t.Count, t.Fields, a)
	default:
		n.kinds |= 1 << t.Kind
		if t.Kind <= KStr {
			n.counts[t.Kind] += t.Count
		}
	}
}

// sortedLabels reports whether the names are strictly increasing: a
// canonical record's field list, which seal can hand back unchanged.
func sortedLabels(fields []Field) bool {
	for i := 1; i < len(fields); i++ {
		if fields[i-1].Name >= fields[i].Name {
			return false
		}
	}
	return true
}

// array is the node's array bucket, made on first use.
func (n *accumNode) array() *arrayAccum {
	if n.arr == nil {
		n.arr = &arrayAccum{}
	}
	return n.arr
}

// fold counts n more arrays, of count values, into the bucket, with
// lengths between minLen and maxLen (-1: unbounded). The elements are
// the caller's to fold.
func (a *arrayAccum) fold(n int, count int64, minLen, maxLen int) {
	if a.n == 0 {
		a.minLen, a.maxLen = minLen, maxLen
	} else {
		a.minLen = min(a.minLen, minLen)
		if maxLen == -1 || a.maxLen == -1 {
			a.maxLen = -1
		} else {
			a.maxLen = max(a.maxLen, maxLen)
		}
	}
	a.n += n
	a.count += count
}

// kindGroup is the one group every record fuses into under K.
func (n *accumNode) kindGroup() *recordAccum {
	if len(n.recs) == 0 {
		return n.newGroup("")
	}
	return n.activate(n.recs[0])
}

// groupByKey finds (or creates) the group of the label set whose key
// is given, under L, and marks it live: the one lookup every route to
// a group takes once K's one group and a shaped record's group
// (byShape) are ruled out. The key is a scratch buffer, so finding a
// group allocates nothing; the key string is made only for a group
// being born.
func (n *accumNode) groupByKey(key []byte) *recordAccum {
	if n.recIndex != nil {
		if ra := n.recIndex[string(key)]; ra != nil {
			return n.activate(ra)
		}
	} else {
		for _, ra := range n.recs {
			if ra.key == string(key) {
				return n.activate(ra)
			}
		}
	}
	return n.newGroup(string(key))
}

// newGroup appends a live group with the given label key, building the
// label-key index when the node outgrows the linear scan.
func (n *accumNode) newGroup(key string) *recordAccum {
	ra := &recordAccum{key: key, pos: len(n.recs)}
	n.recs = append(n.recs, ra)
	if n.recIndex != nil {
		n.recIndex[key] = ra
	} else if len(n.recs) > smallRecordGroups {
		n.recIndex = make(map[string]*recordAccum, 2*len(n.recs))
		for _, g := range n.recs {
			n.recIndex[g.key] = g
		}
	}
	return n.activate(ra)
}

// activate moves a clean retained group to the end of the live prefix;
// a group that is already live stays where it is.
func (n *accumNode) activate(ra *recordAccum) *recordAccum {
	if i := ra.pos; i >= n.live {
		o := n.recs[n.live]
		n.recs[i], n.recs[n.live] = o, ra
		o.pos, ra.pos = i, n.live
		n.live++
	}
	return ra
}

// removeGroup drops recs[i] to the garbage collector, moving the last
// group into its place.
func (n *accumNode) removeGroup(i int) {
	last := len(n.recs) - 1
	if n.recIndex != nil {
		delete(n.recIndex, n.recs[i].key)
	}
	n.recs[i] = n.recs[last]
	n.recs[i].pos = i
	n.recs[last] = nil
	n.recs = n.recs[:last]
}

// unhold turns a held group back into an ordinary one, before it takes
// its second record: the held record's fields go into the field table
// (its count and nrecs are the group's already). The table is then
// exactly the held record's label set, which is the group's key.
func (ra *recordAccum) unhold(a *Accum) {
	t := ra.held
	ra.held = nil
	ra.absorbFields(0, 0, t.Fields, a)
}

// clearHeld turns a held group into a clean one at a reset: a table of
// the held record's label set with every count zero, so the label set,
// if it comes back, absorbs into storage that is already there.
func (ra *recordAccum) clearHeld() {
	hf := ra.held.Fields
	ra.fields = make([]fieldAccum, len(hf))
	for i := range hf {
		ra.fields[i].name = hf[i].Name
	}
	ra.held, ra.nrecs, ra.count = nil, 0, 0
}

// absorbFields merges nrecs records counting count values, whose fields
// are tf, into the group.
func (ra *recordAccum) absorbFields(nrecs int, count int64, tf []Field, a *Accum) {
	w := ra.take(nrecs, count, len(tf), false, a)
	if cap(ra.fields) < len(tf) {
		// The table ends up at least as wide as the record (exactly as
		// wide under L), and a slot embeds a whole accumNode by value:
		// growing a fresh group's table one insert at a time would copy
		// it 1→2→4→8.
		ra.fields = slices.Grow(ra.fields, len(tf)-len(ra.fields))
	}
	for j := range tf {
		f := &tf[j]
		fa := w.slot(f.Name)
		fa.count += f.Count
		fa.optional = fa.optional || f.Optional
		fa.seenIn++
		fa.node.absorb(f.Type, a)
	}
}

// take readies the group for nrecs more records counting count values,
// whose width fields the returned walk then finds the slots of: a held
// group first spreads its record into the table (unhold). zip says the
// fields are the group's label set if its table is as wide — a staged
// record or group found by key or shape under L, where a group's table
// is its label set. A sealed record's fields are not certified sorted,
// so it never zips.
func (ra *recordAccum) take(nrecs int, count int64, width int, zip bool, a *Accum) slotWalk {
	if ra.held != nil {
		ra.unhold(a)
	}
	ra.nrecs += nrecs
	ra.count += count
	return slotWalk{ra: ra, zip: zip && len(ra.fields) == width}
}

// slotWalk finds the field-table slots of one incoming record's fields,
// which come in name order: the one find-or-insert walk of every
// absorption route. A zipped walk pairs the i-th field with the i-th
// slot and compares no name; otherwise it merges by name, inserting the
// names the table lacks (rare once the shape has been seen).
type slotWalk struct {
	ra   *recordAccum
	next int // where the next name's search starts
	zip  bool
}

// slot returns the slot of the next incoming field, name.
func (w *slotWalk) slot(name string) *fieldAccum {
	if !w.zip {
		w.find(name)
	}
	w.next++
	return &w.ra.fields[w.next-1]
}

// find moves next to name's slot, at or after next, inserting one in
// name order if the table has none.
func (w *slotWalk) find(name string) {
	fs, i := w.ra.fields, w.next
	if i > 0 && name < fs[i-1].name {
		// Non-canonical (unsorted) input: restart the walk so the table
		// stays sorted and duplicate-free regardless.
		i = 0
	}
	for i < len(fs) && fs[i].name < name {
		i++
	}
	if i == len(fs) || fs[i].name != name {
		w.ra.fields = slices.Insert(fs, i, fieldAccum{name: name})
	}
	w.next = i
}

// seal builds the canonical type of the node: the same buckets, in the
// same canonical alternative order, with the same counts, as canonical()
// produces when MergeAll folds the absorbed types. A node with one
// alternative seals to it with no alternatives slice, and an atom
// counted once is its kind's shared node (countedAtom).
func (n *accumNode) seal(e Equiv) *Type {
	if n.kinds&anyKind != 0 {
		return countedAtom(KAny, n.total)
	}
	c := n.alternatives()
	switch {
	case c.nalts == 0:
		return Bottom
	case c.nalts > 1:
	case c.atoms != 0:
		return n.sealAtom(Kind(bits.TrailingZeros16(c.atoms)))
	case c.arr:
		return n.arr.seal(e)
	default:
		return c.live[0].seal(e) // the one live group is at position 0
	}
	out := make([]*Type, 0, c.nalts)
	for s := c.atoms; s != 0; s &= s - 1 { // null, bool, the number, str
		out = append(out, n.sealAtom(Kind(bits.TrailingZeros16(s))))
	}
	if len(c.live) > 1 {
		// The live prefix is in arrival order; the canonical union wants
		// label-key order. Sorted in place (groups are found by label
		// set, never by position).
		slices.SortFunc(c.live, func(a, b *recordAccum) int {
			return strings.Compare(a.key, b.key)
		})
	}
	for i, ra := range c.live {
		ra.pos = i
		out = append(out, ra.seal(e))
	}
	if c.arr {
		out = append(out, n.arr.seal(e))
	}
	return &Type{Kind: KUnion, Alts: out, Count: n.total}
}

// census is a node's alternatives, in canonical order, as seal builds
// and sameStructure compares them: the atom kinds, the live record
// groups, the array bucket if it holds an array, and their number.
type census struct {
	atoms uint16
	live  []*recordAccum
	arr   bool
	nalts int
}

func (n *accumNode) alternatives() census {
	c := census{atoms: n.kinds, live: n.recs[:n.live], arr: n.arr != nil && n.arr.n > 0}
	if c.atoms&(1<<KNum) != 0 {
		// Num absorbs Int: Int values are Num values, so Int + Num = Num.
		c.atoms &^= 1 << KInt
	}
	c.nalts = bits.OnesCount16(c.atoms) + len(c.live)
	if c.arr {
		c.nalts++
	}
	return c
}

// optionalIn is the optionality rule of a field of a group of nrecs
// records: optional when a record marked it so, or a record lacked it.
func (fa *fieldAccum) optionalIn(nrecs int) bool {
	return fa.optional || fa.seenIn < nrecs
}

// sameStructure is SameStructure's walk of one node: seal's census,
// compared alternative by alternative with t's — t itself when the node
// seals to one alternative.
func (n *accumNode) sameStructure(t *Type) bool {
	if n.kinds&anyKind != 0 {
		return t.Kind == KAny
	}
	c := n.alternatives()
	alts := []*Type{t}
	switch {
	case c.nalts == 0:
		return t.Kind == KBottom
	case c.nalts > 1:
		if t.Kind != KUnion || len(t.Alts) != c.nalts {
			return false
		}
		alts = t.Alts
	}
	for s := c.atoms; s != 0; s &= s - 1 {
		if alts[0].Kind != Kind(bits.TrailingZeros16(s)) {
			return false
		}
		alts = alts[1:]
	}
	for _, ra := range c.live {
		if !ra.sameStructure(alts[0]) {
			return false
		}
		alts = alts[1:]
	}
	return !c.arr || n.arr.sameStructure(alts[0])
}

func (ra *recordAccum) sameStructure(t *Type) bool {
	if ra.held != nil {
		return ra.held == t
	}
	if t.Kind != KRecord {
		return false
	}
	tf := t.Fields
	for i := range ra.fields {
		fa := &ra.fields[i]
		if fa.seenIn == 0 {
			continue // clean slot of a K group
		}
		if len(tf) == 0 || tf[0].Name != fa.name ||
			tf[0].Optional != fa.optionalIn(ra.nrecs) ||
			!fa.node.sameStructure(tf[0].Type) {
			return false
		}
		tf = tf[1:]
	}
	return len(tf) == 0
}

func (a *arrayAccum) sameStructure(t *Type) bool {
	return t.Kind == KArray && a.elem.sameStructure(t.Elem)
}

// sealAtom is the node's atom alternative of kind k. The number
// alternative is Num when the node absorbed any Num, and counts the Int
// values too.
func (n *accumNode) sealAtom(k Kind) *Type {
	c := n.counts[k]
	if k == KNum {
		c += n.counts[KInt]
	}
	return countedAtom(k, c)
}

// onceAtoms are the sealed atoms counted once, one immutable node per
// kind shared by every seal. Under L, high-cardinality data gives about
// one record type per document, and almost every field of it is an atom
// seen once: sharing them makes such a field cost its Field entry alone.
var onceAtoms = [...]*Type{
	KNull: {Kind: KNull, Count: 1},
	KBool: {Kind: KBool, Count: 1},
	KInt:  {Kind: KInt, Count: 1},
	KNum:  {Kind: KNum, Count: 1},
	KStr:  {Kind: KStr, Count: 1},
	KAny:  {Kind: KAny, Count: 1},
}

// countedAtom is the sealed atom of kind k summarising count values: its
// kind's shared node when count is 1, else a fresh one.
func countedAtom(k Kind, count int64) *Type {
	if count == 1 {
		return onceAtoms[k]
	}
	return &Type{Kind: k, Count: count}
}

func (ra *recordAccum) seal(e Equiv) *Type {
	if ra.held != nil {
		return ra.held
	}
	var fields []Field
	for i := range ra.fields {
		fa := &ra.fields[i]
		if fa.seenIn == 0 {
			continue // clean slot of a K group
		}
		if fields == nil {
			fields = make([]Field, 0, len(ra.fields))
		}
		fields = append(fields, Field{
			Name:     fa.name,
			Type:     fa.node.seal(e),
			Optional: fa.optionalIn(ra.nrecs),
			Count:    fa.count,
		})
	}
	// The field table is kept sorted and duplicate-free, so no re-sort:
	// the slice is already in NewRecord's canonical order.
	return &Type{Kind: KRecord, Fields: fields, Count: ra.count}
}

// seal of an array: an element collection nothing reached seals to
// Bottom.
func (a *arrayAccum) seal(e Equiv) *Type {
	return &Type{Kind: KArray, Elem: a.elem.seal(e), Count: a.count, MinLen: a.minLen, MaxLen: a.maxLen}
}

// The retention bounds of a reset: the record groups one node may keep,
// and the field slots a group may have and still be kept. A pooled
// staging node (absorb.go) serves whatever field comes next, and a
// worker's accumulator sees a new window of the corpus each round, so
// on a drifting or high-cardinality corpus either would collect every
// label set it ever saw. A reset keeps the most recently live groups —
// enough that the nested label sets of an ordinary corpus never churn
// (evicting a group that comes back costs its allocation again: capping
// the tweets corpus, which needs 15, at 8 costs 40% throughput) — and
// drops the rest to the garbage collector.
const (
	keptGroups = 4 * smallRecordGroups
	keptSlots  = 1024
)

// reset clears the node for reuse in place, retaining its storage —
// field tables, group lists, nested nodes — up to keptGroups and
// keptSlots. Keeping the group tables is the reuse payoff: a worker
// absorbing the next chunk (or the next document's arrays) of the same
// shapes allocates nothing at all. A held group has no table to keep:
// one among the first keptGroups gets a clean table of its label set
// (clearHeld) — a clean group must hold in its table the label set it
// is found by — so the label set, if it comes back, stages without
// allocating; the others are dropped.
//
// It costs what was dirtied since the previous reset, not what is
// retained, by the clean-subtree invariant every mutation of the tree
// maintains: a record group outside the live prefix (nrecs == 0), a
// field slot with seenIn == 0, and an array bucket with n == 0 that was
// not opened are deeply zero — every count, flag and nested node below
// them — so reset never descends into them. The one way to dirty a
// subtree without bumping its count is BeginArray below the root
// (elements land in arr.elem before EndArray counts the array, and an
// abandoned document or an Any-collapsed node never counts it); that is
// what arrayAccum.opened records.
func (n *accumNode) reset() {
	n.total = 0
	if n.kinds != 0 {
		n.kinds, n.counts = 0, [KStr + 1]int64{}
	}
	if a := n.arr; a != nil && (a.n > 0 || a.opened) {
		a.n, a.opened = 0, false
		a.count = 0
		a.minLen, a.maxLen = 0, 0
		a.elem.reset()
	}
	if n.live > 0 {
		n.resetGroups()
	}
}

// resetGroups is reset's part for the live record groups. A node with
// none has nothing to trim either: groups are only ever added live.
func (n *accumNode) resetGroups() {
	// Downwards, so removeGroup only ever moves in a group that is clean
	// already.
	for i := n.live - 1; i >= 0; i-- {
		ra := n.recs[i]
		switch {
		case ra.held != nil && i < keptGroups && len(ra.held.Fields) <= keptSlots:
			ra.clearHeld()
		case ra.held != nil || len(ra.fields) > keptSlots:
			n.removeGroup(i)
		default:
			ra.reset()
		}
	}
	n.live = 0
	for len(n.recs) > keptGroups {
		n.removeGroup(len(n.recs) - 1)
	}
	if n.recIndex != nil && len(n.recs) <= smallRecordGroups {
		n.recIndex = nil // back to the linear scan
	}
}

func (ra *recordAccum) reset() {
	ra.nrecs = 0
	ra.count = 0
	for i := range ra.fields {
		fa := &ra.fields[i]
		if fa.seenIn == 0 {
			continue
		}
		fa.count = 0
		fa.optional = false
		fa.seenIn = 0
		fa.node.reset()
	}
}
