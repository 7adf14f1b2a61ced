// accum.go is the mutable fold core: an open schema accumulator that
// absorbs document types in place and seals to the canonical immutable
// union on demand. Merge/MergeAll (merge.go) remain the reference
// implementation; Accum is the hot-path engine the streamed inference
// fold runs on.

package typelang

import (
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

// Equiv returns the equivalence the accumulator folds under.
func (a *Accum) Equiv() Equiv { return a.equiv }

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
// rebuilds on every merge. Atoms are presence flags plus counts; the
// array bucket and record groups recurse.
type accumNode struct {
	// total is the sum of the top-level counts of every absorbed
	// alternative — the count of the sealed union, and of the sealed Any
	// when an Any alternative collapsed the node.
	total int64

	haveAny  bool
	haveNull bool
	haveBool bool
	haveInt  bool
	haveNum  bool
	haveStr  bool

	nullCount int64
	boolCount int64
	intCount  int64
	numCount  int64
	strCount  int64

	arr *arrayAccum

	// recs are the record groups: exactly one under K (records always
	// fuse); one per label set under L, sorted by label key at seal.
	// recs[:live] are the groups that absorbed a record since the last
	// reset; recs[live:] are clean groups kept only so the next round
	// can reuse their storage (see reset). Everything that reads the
	// node — seal, empty, absorbNode — walks the live prefix only.
	// Lookup on absorb is a linear scan while the groups are few (the
	// common case; the scan is cheap — label sets differ in length most
	// of the time, equal field names are pointer-equal when the map
	// phase interns them, and the groups of the previous round sit at
	// the front) and switches to recIndex, a label-key map over all of
	// recs, past smallRecordGroups — the hashed grouping the reference
	// fold uses, so high-cardinality L data stays linear in documents
	// instead of going quadratic in groups.
	recs     []*recordAccum
	live     int
	recIndex map[string]*recordAccum
}

// smallRecordGroups bounds the linear group scan under L: below it the
// scan beats paying a label-key allocation per absorbed record; above
// it the map keeps group lookup O(fields) no matter how many label
// sets the data holds.
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
	key      string // label key, built lazily for the seal ordering
	keyValid bool
	shape    *Shape // of the last shaped record (or group) taken, nil if none: the pointer lookup of byShape
	pos      int    // index in the owning node's recs
	nrecs    int
	count    int64
	fields   []fieldAccum
	held     *Type // the group's one record while it is held, else nil
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
	if n.haveAny {
		// Any absorbs everything; only the count matters from here on.
		return
	}
	switch t.Kind {
	case KAny:
		n.haveAny = true
	case KNull:
		n.haveNull = true
		n.nullCount += t.Count
	case KBool:
		n.haveBool = true
		n.boolCount += t.Count
	case KInt:
		n.haveInt = true
		n.intCount += t.Count
	case KNum:
		n.haveNum = true
		n.numCount += t.Count
	case KStr:
		n.haveStr = true
		n.strCount += t.Count
	case KArray:
		if n.arr == nil {
			n.arr = &arrayAccum{}
		}
		n.arr.absorb(t, a)
	case KRecord:
		ra := n.recordGroup(t, a)
		if ra.nrecs == 0 && len(ra.fields) == 0 && sortedLabels(t.Fields) {
			// A group without a table (a new one, or a clean {} kept
			// by a reset) takes a sealed record as it is.
			ra.held, ra.nrecs, ra.count = t, 1, t.Count
			return
		}
		ra.absorb(t, a)
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

func (a *arrayAccum) absorb(t *Type, acc *Accum) {
	if a.n == 0 {
		a.minLen, a.maxLen = t.MinLen, t.MaxLen
	} else {
		if t.MinLen < a.minLen {
			a.minLen = t.MinLen
		}
		if t.MaxLen == -1 || a.maxLen == -1 {
			a.maxLen = -1
		} else if t.MaxLen > a.maxLen {
			a.maxLen = t.MaxLen
		}
	}
	a.n++
	a.count += t.Count
	a.elem.absorb(t.Elem, acc)
}

// recordGroup finds (or creates) the group record t fuses into — the
// single group under K, the group with t's label set under L — and
// marks it live. The label key is built in the accumulator's scratch
// buffer, so finding a group allocates nothing; the key string is made
// only for a group being born.
func (n *accumNode) recordGroup(t *Type, a *Accum) *recordAccum {
	if a.equiv == EquivKind {
		return n.kindGroup()
	}
	if n.recIndex != nil {
		key := a.typeKey(t)
		if ra := n.recIndex[string(key)]; ra != nil {
			return n.activate(ra)
		}
		return n.newGroup(string(key))
	}
	for _, ra := range n.recs {
		if ra.sameLabels(t.Fields) {
			return n.activate(ra)
		}
	}
	// New group: its key is the incoming record's label set (the field
	// table is still empty; absorb fills it right after, or the group
	// holds t).
	return n.newGroup(string(a.typeKey(t)))
}

// typeKey renders t's label set exactly as labelKey does, into the
// accumulator's scratch buffer.
func (a *Accum) typeKey(t *Type) []byte {
	b := a.keyBuf[:0]
	for i := range t.Fields {
		b = appendLabel(b, t.Fields[i].Name)
	}
	a.keyBuf = b
	return b
}

// kindGroup is the one group every record fuses into under K.
func (n *accumNode) kindGroup() *recordAccum {
	if len(n.recs) == 0 {
		return n.newGroup("")
	}
	return n.activate(n.recs[0])
}

// newGroup appends a live group with the given label key, building the
// label-key index when the node outgrows the linear scan.
func (n *accumNode) newGroup(key string) *recordAccum {
	ra := &recordAccum{key: key, keyValid: true, pos: len(n.recs)}
	n.recs = append(n.recs, ra)
	if n.recIndex != nil {
		n.recIndex[key] = ra
	} else if len(n.recs) > smallRecordGroups {
		n.recIndex = make(map[string]*recordAccum, 2*len(n.recs))
		for _, g := range n.recs {
			n.recIndex[g.labelKey()] = g
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
		delete(n.recIndex, n.recs[i].labelKey())
	}
	n.recs[i] = n.recs[last]
	n.recs[i].pos = i
	n.recs[last] = nil
	n.recs = n.recs[:last]
}

// sameLabels reports whether the group's label set equals the given
// (name-sorted) field list's. Under L a group's field table holds
// exactly its label set, even across a reset: a clean group is only
// ever recycled by a record matching its full retained name set (an
// exact match marks every slot live again), so an L group never holds a
// clean slot while it has absorbed records, and the straight aligned
// walk below compares the label set either way. A held group's label
// set is its held record's.
func (ra *recordAccum) sameLabels(fields []Field) bool {
	if ra.held != nil {
		hf := ra.held.Fields
		if len(hf) != len(fields) {
			return false
		}
		for i := range fields {
			if hf[i].Name != fields[i].Name {
				return false
			}
		}
		return true
	}
	if len(ra.fields) != len(fields) {
		return false
	}
	for i := range fields {
		if ra.fields[i].name != fields[i].Name {
			return false
		}
	}
	return true
}

// unhold turns a held group back into an ordinary one, before it takes
// its second record: the held record's fields go into the field table
// (its count and nrecs are the group's already). The table is then
// exactly the held record's label set, which is the group's key.
func (ra *recordAccum) unhold(a *Accum) {
	t := ra.held
	ra.held = nil
	ra.absorbFields(t.Fields, a)
	ra.keyValid = true
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

// absorb merges one record into the group.
func (ra *recordAccum) absorb(t *Type, a *Accum) {
	if ra.held != nil {
		ra.unhold(a)
	}
	ra.nrecs++
	ra.count += t.Count
	ra.absorbFields(t.Fields, a)
}

// absorbFields merges a record's fields into the group's field table: a
// sorted merge walk over the in-place table. New names insert into the
// table (rare once the shape has been seen); existing slots just bump
// counts and recurse.
func (ra *recordAccum) absorbFields(tf []Field, a *Accum) {
	fs := ra.fields
	if cap(fs) < len(tf) {
		// The table ends up at least as wide as the record (exactly as
		// wide under L), and a slot embeds a whole accumNode by value:
		// growing a fresh group's table one insert at a time would copy
		// it 1→2→4→8.
		fs = slices.Grow(fs, len(tf)-len(fs))
	}
	i := 0
	prev := ""
	for j := range tf {
		f := &tf[j]
		if j > 0 && f.Name < prev {
			// Non-canonical (unsorted) input: restart the walk so the
			// table stays sorted and duplicate-free regardless.
			i = 0
		}
		prev = f.Name
		for i < len(fs) && fs[i].name < f.Name {
			i++
		}
		if i == len(fs) || fs[i].name != f.Name {
			fs = slices.Insert(fs, i, fieldAccum{name: f.Name})
			ra.keyValid = false
		}
		fa := &fs[i]
		fa.count += f.Count
		fa.optional = fa.optional || f.Optional
		fa.seenIn++
		fa.node.absorb(f.Type, a)
		i++
	}
	ra.fields = fs
}

// labelKey renders the group's label set exactly as merge.go's labelKey
// does — for the canonical union ordering at seal, and as the recIndex
// key. It covers every slot in the field table: under L (the only
// equivalence that uses keys) the table is exactly the label set even
// across a reset, because a clean group is only ever recycled by its
// exact label set.
func (ra *recordAccum) labelKey() string {
	if !ra.keyValid {
		var b []byte
		for i := range ra.fields {
			b = appendLabel(b, ra.fields[i].name)
		}
		ra.key = string(b)
		ra.keyValid = true
	}
	return ra.key
}

func (n *accumNode) empty() bool {
	if n.haveAny || n.haveNull || n.haveBool || n.haveInt || n.haveNum || n.haveStr {
		return false
	}
	if n.arr != nil && n.arr.n > 0 {
		return false
	}
	return n.live == 0
}

// seal builds the canonical type of the node: the same buckets, in the
// same canonical alternative order, with the same counts, as canonical()
// produces when MergeAll folds the absorbed types. A node with one
// alternative seals to it with no alternatives slice, and an atom
// counted once is its kind's shared node (countedAtom).
func (n *accumNode) seal(e Equiv) *Type {
	if n.haveAny {
		return countedAtom(KAny, n.total)
	}
	live := n.recs[:n.live]
	haveArr := n.arr != nil && n.arr.n > 0
	natoms := 0
	if n.haveNull {
		natoms++
	}
	if n.haveBool {
		natoms++
	}
	if n.haveInt || n.haveNum {
		natoms++
	}
	if n.haveStr {
		natoms++
	}
	nalts := natoms + len(live)
	if haveArr {
		nalts++
	}
	if nalts == 0 {
		return Bottom
	}
	if nalts == 1 {
		switch {
		case natoms == 1:
			return n.sealAtom()
		case haveArr:
			return n.arr.seal(e)
		default:
			return live[0].seal(e) // the one live group is at position 0
		}
	}
	out := make([]*Type, 0, nalts)
	if n.haveNull {
		out = append(out, countedAtom(KNull, n.nullCount))
	}
	if n.haveBool {
		out = append(out, countedAtom(KBool, n.boolCount))
	}
	if n.haveInt || n.haveNum {
		out = append(out, n.sealNumber())
	}
	if n.haveStr {
		out = append(out, countedAtom(KStr, n.strCount))
	}
	if len(live) > 1 {
		// The live prefix is in arrival order; the canonical union wants
		// label-key order. Sorted in place (groups are found by label
		// set, never by position).
		slices.SortFunc(live, func(a, b *recordAccum) int {
			return strings.Compare(a.labelKey(), b.labelKey())
		})
	}
	for i, ra := range live {
		ra.pos = i
		out = append(out, ra.seal(e))
	}
	if haveArr {
		out = append(out, n.arr.seal(e))
	}
	return &Type{Kind: KUnion, Alts: out, Count: n.total}
}

// sealAtom is the seal of a node whose one alternative is an atom.
func (n *accumNode) sealAtom() *Type {
	switch {
	case n.haveNull:
		return countedAtom(KNull, n.nullCount)
	case n.haveBool:
		return countedAtom(KBool, n.boolCount)
	case n.haveStr:
		return countedAtom(KStr, n.strCount)
	default:
		return n.sealNumber()
	}
}

// sealNumber is the node's numeric alternative. Num absorbs Int: Int
// values are Num values, so Int + Num = Num.
func (n *accumNode) sealNumber() *Type {
	if n.haveNum {
		return countedAtom(KNum, n.intCount+n.numCount)
	}
	return countedAtom(KInt, n.intCount)
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
			Optional: fa.optional || fa.seenIn < ra.nrecs,
			Count:    fa.count,
		})
	}
	// The field table is kept sorted and duplicate-free, so no re-sort:
	// the slice is already in NewRecord's canonical order.
	return &Type{Kind: KRecord, Fields: fields, Count: ra.count}
}

func (a *arrayAccum) seal(e Equiv) *Type {
	elem := Bottom
	if !a.elem.empty() {
		elem = a.elem.seal(e)
	}
	return &Type{Kind: KArray, Elem: elem, Count: a.count, MinLen: a.minLen, MaxLen: a.maxLen}
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
	n.haveAny, n.haveNull, n.haveBool, n.haveInt, n.haveNum, n.haveStr = false, false, false, false, false, false
	n.nullCount, n.boolCount, n.intCount, n.numCount, n.strCount = 0, 0, 0, 0, 0
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
