package typelang

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/genjson"
	"repro/internal/jsonvalue"
)

// The tests in this file guard the direct-absorption surface and the
// clean-subtree invariant its recycling leans on (accumNode.reset):
// whatever a document did — committed, abandoned at any depth, rebound
// a duplicate field — the staging pools must be *deeply* zero
// afterwards, checked by a walk that ignores every mark reset trusts.

// dirt describes the first non-zero thing found below a node that must
// be clean, walking every group, slot and array bucket whether or not
// the live prefix, seenIn or opened say there is anything to see.
func (n *accumNode) dirt() string {
	switch {
	case n.total != 0:
		return fmt.Sprintf("total=%d", n.total)
	case n.kinds != 0:
		return fmt.Sprintf("atom kinds %#x", n.kinds)
	case n.counts != [len(n.counts)]int64{}:
		return fmt.Sprintf("atom counts %v", n.counts)
	case n.live != 0:
		return fmt.Sprintf("live=%d", n.live)
	}
	if a := n.arr; a != nil {
		if a.n != 0 || a.opened || a.count != 0 || a.minLen != 0 || a.maxLen != 0 {
			return fmt.Sprintf("array bucket n=%d opened=%v count=%d len=[%d,%d]", a.n, a.opened, a.count, a.minLen, a.maxLen)
		}
		if d := a.elem.dirt(); d != "" {
			return "elem: " + d
		}
	}
	if n.recIndex != nil && len(n.recIndex) != len(n.recs) {
		return fmt.Sprintf("index holds %d groups, node %d", len(n.recIndex), len(n.recs))
	}
	for i, ra := range n.recs {
		if ra.pos != i {
			return fmt.Sprintf("group %d has pos %d", i, ra.pos)
		}
		if n.recIndex != nil && n.recIndex[ra.key] != ra {
			return fmt.Sprintf("group %d missing from the index", i)
		}
		if ra.nrecs != 0 || ra.count != 0 || ra.held != nil {
			return fmt.Sprintf("group %d: nrecs=%d count=%d held=%v", i, ra.nrecs, ra.count, ra.held)
		}
		for j := range ra.fields {
			fa := &ra.fields[j]
			if fa.seenIn != 0 || fa.count != 0 || fa.optional {
				return fmt.Sprintf("group %d slot %q: seenIn=%d count=%d optional=%v", i, fa.name, fa.seenIn, fa.count, fa.optional)
			}
			if d := fa.node.dirt(); d != "" {
				return fmt.Sprintf("group %d slot %q: %s", i, fa.name, d)
			}
		}
	}
	return ""
}

// stagingDirt checks every pooled node, the root-array staging node and
// every pooled open record.
func (a *Accum) stagingDirt() string {
	for i, n := range a.nodePool {
		if d := n.dirt(); d != "" {
			return fmt.Sprintf("nodePool[%d]: %s", i, d)
		}
	}
	if a.stageArr != nil {
		if d := a.stageArr.dirt(); d != "" {
			return "stageArr: " + d
		}
	}
	for i, r := range a.recPool {
		if len(r.fields) != 0 || len(r.seen) != 0 {
			return fmt.Sprintf("recPool[%d]: %d fields, %d seen entries", i, len(r.fields), len(r.seen))
		}
		for _, sf := range r.fields[:cap(r.fields)] {
			if sf != (stagedField{}) {
				return fmt.Sprintf("recPool[%d]: stale staged field %q", i, sf.name)
			}
		}
	}
	return ""
}

// surfaceProg interprets a byte string as a program over the absorption
// surface: an equivalence, then documents (and the odd Reset or Absorb
// of a sealed type) until the bytes run out. Each value byte picks an atom,
// an array, a record — with duplicate names, and wide enough now and
// then to cross smallOpenFields — or an abort, which abandons the
// document the way the walkers do: every open frame aborted, innermost
// first. About half the records are staged the way the index walk
// stages one on its pattern tree: Stage while the names are new to the
// record, Field from the first repeated one on, and closed with the
// layout's Shape — one per sequence of names, kept for the program's
// life — if no name repeated. Exhausted input reads as zero bytes (null
// atoms), so every program terminates.
type surfaceProg struct {
	data   []byte
	pos    int
	e      Equiv
	shapes map[string]*Shape
}

// shape returns the one Shape of the records staging names in order.
func (p *surfaceProg) shape(names []string) *Shape {
	key := fmt.Sprintf("%q", names)
	if p.shapes[key] == nil {
		if p.shapes == nil {
			p.shapes = map[string]*Shape{}
		}
		p.shapes[key] = NewShape(names)
	}
	return p.shapes[key]
}

func (p *surfaceProg) next() byte {
	if p.pos >= len(p.data) {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return b
}

const (
	progMaxDepth = 6
	opAbort      = 14
	opArray      = 6  // 6..8
	opRecord     = 9  // 9..13
	progReset    = 15 // at the document level only
	progAbsorb   = 31 // at the document level only: Absorb a random sealed type
)

// value drives one value with op byte b into dst and returns its type
// per the reference definition (infer.TypeOf), or false if the document
// was abandoned below.
func (p *surfaceProg) value(dst Target, depth int, b byte) (*Type, bool) {
	op := b % 16
	if depth >= progMaxDepth && op >= opArray {
		op %= opArray
	}
	atom := func(k Kind) (*Type, bool) {
		dst.AbsorbKind(k)
		return Atom(k, 1), true
	}
	switch {
	case op == 0:
		return atom(KNull)
	case op == 1:
		return atom(KBool)
	case op == 2:
		return atom(KInt)
	case op == 3:
		return atom(KNum)
	case op == 4:
		return atom(KStr)
	case op == 5:
		if (b>>4)%4 == 0 {
			return atom(KAny)
		}
		return atom(KStr)
	case op < opRecord:
		n := int(p.next() % 5)
		el := dst.BeginArray()
		ts := make([]*Type, 0, n)
		for i := 0; i < n; i++ {
			t, ok := p.value(el, depth+1, p.next())
			if !ok {
				dst.AbortArray()
				return nil, false
			}
			ts = append(ts, t)
		}
		dst.EndArray(n)
		return NewArrayCounted(MergeAll(ts, p.e), 1, n, n), true
	case op < opAbort:
		c := p.next()
		n, wide := int(c%6), c >= 232
		if wide {
			n = smallOpenFields - 2 + int(c%8)
		}
		r := dst.BeginRecord()
		bound := map[string]*Type{}
		var layout []string // the names staged, while none has repeated
		onLayout := c >= 116 && c < 232 || c >= 244
		for i := 0; i < n; i++ {
			nb := p.next()
			name := string(rune('a' + nb%7))
			if wide {
				idx := i
				if nb%5 == 0 {
					idx = int(nb) % (i + 1) // rebind an earlier field
				}
				name = fmt.Sprintf("w%02d", idx)
			}
			var field Target
			if _, dup := bound[name]; onLayout && !dup {
				field, layout = r.Stage(name), append(layout, name)
			} else {
				field, onLayout = r.Field(name), false
			}
			t, ok := p.value(field, depth+1, p.next())
			if !ok {
				r.Abort()
				return nil, false
			}
			bound[name] = t // last binding wins
		}
		if onLayout {
			dst.EndRecord(r, p.shape(layout))
		} else {
			dst.EndRecord(r, nil)
		}
		fields := make([]Field, 0, len(bound))
		for name, t := range bound {
			fields = append(fields, Field{Name: name, Type: t, Count: 1})
		}
		return NewRecordCounted(1, fields...), true
	default:
		return nil, false
	}
}

// run executes the program, checking after every step that the seal
// equals MergeAll over exactly the committed documents and that the
// staging pools are deeply zero.
func (p *surfaceProg) run() error {
	p.e = Equiv(p.next() % 2)
	a := NewAccum(p.e)
	var committed []*Type
	for step := 0; p.pos < len(p.data); step++ {
		b := p.next()
		switch {
		case b%16 == progReset && b%32 != progAbsorb:
			a.Reset()
			committed = committed[:0]
		case b%32 == progAbsorb:
			// A sealed type, as the reduce absorbs them: its record
			// groups open held.
			t := sealOf(p.e, randomType(int64(p.next()), 2), randomType(int64(p.next()), 2))
			a.Absorb(t)
			committed = append(committed, t)
		default:
			if t, ok := p.value(a.Doc(), 0, b); ok {
				committed = append(committed, t)
			}
		}
		if d := a.stagingDirt(); d != "" {
			return fmt.Errorf("step %d (byte %d): staging not clean: %s", step, p.pos, d)
		}
		want, got := MergeAll(committed, p.e), a.Seal()
		if !identical(want, got) {
			return fmt.Errorf("step %d (byte %d): seal diverges from MergeAll over the %d committed documents\n want: %s\n got:  %s",
				step, p.pos, len(committed), want.StringCounted(), got.StringCounted())
		}
		if empty(a) != (len(committed) == 0) {
			return fmt.Errorf("step %d: empty = %v with %d committed documents", step, empty(a), len(committed))
		}
	}
	return nil
}

// surfaceSeeds are hand-written programs for the cases the recycling
// has to get right; the fuzz corpus starts from them.
var surfaceSeeds = [][]byte{
	// L: [[1, <abort> — an array abandoned below the root: the inner
	// AbortArray is a no-op, so only arrayAccum.opened tells reset that
	// stageArr.arr.elem is dirty. Then [[]] must seal to [[⊥]].
	{1, 6, 2, 6, 2, 2, opAbort, 6, 1, 6, 0},
	// K: {"a": [1, <abort>, then {"a": "s"} through the same pooled node.
	{0, 9, 1, 0, 6, 2, 2, opAbort, 9, 1, 0, 4},
	// L: [any, [1]] — the inner array lands under an Any-collapsed node,
	// so EndArray never counts it; then [[true]].
	{1, 6, 2, 5, 6, 1, 2, 6, 1, 6, 1, 1},
	// L: {"a": {"b": 1}, "a": "s"} — a rebind resets a live staged node.
	{1, 9, 2, 0, 9, 1, 1, 2, 0, 4, 9, 1, 0, 9, 1, 1, 0},
	// L: a 20-field record with rebinds, then a 2-field one through the
	// same pooled open record.
	{1, 9, 238, 1, 2, 2, 2, 3, 2, 5, 4, 4, 2, 5, 2, 6, 2, 7, 2, 10, 3, 9, 2, 10, 2, 11, 2, 12, 2, 13, 2, 14, 2, 15, 4, 16, 2, 17, 2, 18, 2, 19, 2, 9, 2, 0, 2, 1, 4},
	// Reset and Type absorbs between documents.
	{1, 9, 1, 0, 2, progReset, progAbsorb, 7, 9, 1, 0, 4, progAbsorb, 9},
	// The shaped records (c in [116, 232) or >= 244; c%6 fields, or
	// 14 + c%8 wide ones). L: {"c": 1, "a": "s"} twice (the second finds
	// its group by the shape), {"a": "s", "c": 1} (another shape of the
	// same label set), {"c": 1, "a": 2} unshaped, then across a Reset.
	{1, 9, 116, 2, 2, 0, 4, 9, 116, 2, 2, 0, 4, 9, 116, 0, 4, 2, 2, 9, 2, 2, 2, 0, 2, progReset, 9, 116, 2, 2, 0, 4},
	// L, nested: {"b": {"c": 1}} twice — the staged group carries its
	// shape into the commit — then {"b": {"c": <abort>, then {"b": {"c": "s"}}.
	{1, 9, 121, 1, 9, 121, 2, 2, 9, 121, 1, 9, 121, 2, 2, 9, 121, 1, 9, 121, 2, opAbort, 9, 121, 1, 9, 121, 2, 4},
	// K: {"a": 1, "a": "s", "b": null} leaves its layout at the repeated
	// name; then a 19-field shaped record, the same with w02 rebound at
	// the 18th field — past smallOpenFields, so the name map has to catch
	// up with what Stage never wrote — and a narrow one through the pool.
	{0, 9, 117, 0, 2, 0, 4, 1, 0,
		9, 253, 1, 2, 2, 2, 3, 2, 4, 2, 6, 2, 7, 2, 8, 2, 9, 2, 11, 2, 12, 2, 13, 2, 14, 2, 16, 2, 17, 2, 18, 2, 19, 2, 21, 2, 22, 2, 23, 2,
		9, 253, 1, 2, 2, 2, 3, 2, 4, 2, 6, 2, 7, 2, 8, 2, 9, 2, 11, 2, 12, 2, 13, 2, 14, 2, 16, 2, 17, 2, 18, 2, 19, 2, 21, 2, 20, 4, 23, 2,
		9, 121, 0, 3},
	// L: more root label sets than smallRecordGroups, some with a nested
	// record, so the root finds its groups by key, from every route.
	manyGroupsSeed(),
}

// manyGroupsSeed stages {x: v, y: "s"} for 17 pairs of names x < y, v
// an Int or, every third pair, the nested record {a: Int}, and every
// other record closed with its layout's Shape; then the first four
// again, a Reset, all 17 as the one element of a root array (EndArray's
// absorbNode route) and the first four at the root once more.
func manyGroupsSeed() []byte {
	var docs [][]byte
	for x := byte(0); x < 7 && len(docs) < smallRecordGroups+1; x++ {
		for y := x + 1; y < 7 && len(docs) < smallRecordGroups+1; y++ {
			c := byte(2) // two fields, unshaped
			if len(docs)%2 == 1 {
				c = 116 // two fields, shaped
			}
			v := []byte{2}
			if len(docs)%3 == 0 {
				v = []byte{9, 121, 0, 2}
			}
			docs = append(docs, slices.Concat([]byte{9, c, x}, v, []byte{y, 4}))
		}
	}
	prog := append([]byte{1}, slices.Concat(docs...)...)
	prog = append(append(prog, slices.Concat(docs[:4]...)...), progReset)
	for _, d := range docs {
		prog = append(append(prog, 6, 1), d...)
	}
	return append(prog, slices.Concat(docs[:4]...)...)
}

func TestAbsorbSurfaceSeeds(t *testing.T) {
	for i, s := range surfaceSeeds {
		if err := (&surfaceProg{data: s}).run(); err != nil {
			t.Errorf("seed %d %v: %v", i, s, err)
		}
	}
}

// TestAbsorbSurfaceProperty runs random programs — the deterministic,
// always-on cut of FuzzAbsorbSurface.
func TestAbsorbSurfaceProperty(t *testing.T) {
	rounds := 1500
	if testing.Short() {
		rounds = 200
	}
	r := rand.New(rand.NewSource(14))
	for i := 0; i < rounds; i++ {
		data := make([]byte, 16+r.Intn(600))
		r.Read(data)
		if err := (&surfaceProg{data: data}).run(); err != nil {
			t.Fatalf("program %d %v: %v", i, data, err)
		}
	}
}

func FuzzAbsorbSurface(f *testing.F) {
	for _, s := range surfaceSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		if err := (&surfaceProg{data: data}).run(); err != nil {
			t.Fatal(err)
		}
	})
}

// absorbValue drives one parsed document through the surface exactly as
// the token walker does.
func absorbValue(dst Target, v *jsonvalue.Value) {
	switch v.Kind() {
	case jsonvalue.Null:
		dst.AbsorbKind(KNull)
	case jsonvalue.Bool:
		dst.AbsorbKind(KBool)
	case jsonvalue.Number:
		if v.IsInt() {
			dst.AbsorbKind(KInt)
		} else {
			dst.AbsorbKind(KNum)
		}
	case jsonvalue.String:
		dst.AbsorbKind(KStr)
	case jsonvalue.Array:
		el := dst.BeginArray()
		for _, e := range v.Elems() {
			absorbValue(el, e)
		}
		dst.EndArray(v.Len())
	case jsonvalue.Object:
		r := dst.BeginRecord()
		for _, f := range v.Fields() {
			absorbValue(r.Field(f.Name), f.Value)
		}
		dst.EndRecord(r, nil)
	}
}

// nested calls fn on every accumulator node retained below n, clean or
// not — the walk retained counts as Nodes.
func (n *accumNode) nested(fn func(*accumNode)) {
	if n.arr != nil {
		fn(&n.arr.elem)
		n.arr.elem.nested(fn)
	}
	for _, ra := range n.recs {
		for i := range ra.fields {
			fn(&ra.fields[i].node)
			ra.fields[i].node.nested(fn)
		}
	}
}

// TestRecycleCostIsWhatTheDocumentDirtied is the complexity pin, with no
// clock in it: warm an accumulator on nested heterogeneous tweets so the
// pooled nodes retain thousands of nested nodes, plant a sentinel in
// every one of them (a visit by reset would zero it), then absorb flat
// all-atom documents through every pooled node. Recycling must visit
// the staged nodes only — no sentinel may be gone. (Before the
// clean-subtree invariant every release re-walked all of them.)
func TestRecycleCostIsWhatTheDocumentDirtied(t *testing.T) {
	const sentinel = -7
	for _, e := range []Equiv{EquivKind, EquivLabel} {
		a := NewAccum(e)
		for _, d := range genjson.Collection(genjson.Twitter{Seed: 7}, 600) {
			absorbValue(a.Doc(), d)
		}
		warm := a.retained()
		if warm.Nodes < 200 || warm.PooledNodes < 10 {
			t.Fatalf("%v: warm-up retained too little to pin anything: %+v", e, warm)
		}
		planted := 0
		for _, n := range a.nodePool {
			n.nested(func(m *accumNode) { m.total = sentinel; planted++ })
		}
		if planted != warm.Nodes {
			t.Fatalf("%v: planted %d sentinels, retained counts %d nested nodes", e, planted, warm.Nodes)
		}
		fields := make([]jsonvalue.Field, len(a.nodePool))
		for i := range fields {
			fields[i] = jsonvalue.Field{Name: fmt.Sprintf("f%03d", i), Value: jsonvalue.NewInt(int64(i))}
		}
		flat := jsonvalue.NewObject(fields...)
		for i := 0; i < 20; i++ {
			absorbValue(a.Doc(), flat)
		}
		wiped := 0
		for _, n := range a.nodePool {
			n.nested(func(m *accumNode) {
				if m.total != sentinel {
					wiped++
				}
				m.total = 0
			})
		}
		if wiped != 0 {
			t.Errorf("%v: recycling a flat %d-field document visited %d of the %d nested nodes the pool retains; want 0",
				e, len(fields), wiped, planted)
		}
		if d := a.stagingDirt(); d != "" {
			t.Errorf("%v: %s", e, d)
		}
	}
}

// TestOpenRecordLookupFollowsCurrentWidth pins the sticky-map fix: a
// pooled open record that once staged a 300-field object goes back to
// the linear duplicate scan for a small one — no map writes — and the
// result is what a fresh accumulator gives.
func TestOpenRecordLookupFollowsCurrentWidth(t *testing.T) {
	wide := make([]jsonvalue.Field, 300)
	for i := range wide {
		wide[i] = jsonvalue.Field{Name: fmt.Sprintf("k%03d", i), Value: jsonvalue.NewInt(1)}
	}
	a := NewAccum(EquivLabel)
	absorbValue(a.Doc(), jsonvalue.NewObject(wide...))
	if len(a.recPool) != 1 || a.recPool[0].seen == nil {
		t.Fatal("premise: the pooled open record should have built its name map")
	}
	pooled := a.recPool[0]
	r := a.Doc().BeginRecord()
	if r != pooled {
		t.Fatal("premise: the small record should stage through the pooled open record")
	}
	r.Field("x").AbsorbKind(KInt)
	r.Field("y").AbsorbKind(KStr)
	r.Field("x").AbsorbKind(KBool) // rebind through the linear scan
	r.Field("z").AbsorbKind(KNull)
	if len(r.fields) != 3 {
		t.Errorf("staged %d fields, want 3 (x rebound)", len(r.fields))
	}
	if len(r.seen) != 0 {
		t.Errorf("a 3-field record wrote %d entries to the name map", len(r.seen))
	}
	a.Doc().EndRecord(r, nil)

	fresh := NewAccum(EquivLabel)
	absorbValue(fresh.Doc(), jsonvalue.NewObject(wide...))
	absorbValue(fresh.Doc(), jsonvalue.ObjectFromPairs("x", true, "y", "s", "z", nil))
	if !identical(fresh.Seal(), a.Seal()) {
		t.Errorf("pooled open record diverges\n fresh:  %s\n pooled: %s", fresh.Seal().StringCounted(), a.Seal().StringCounted())
	}
	if d := a.stagingDirt(); d != "" {
		t.Error(d)
	}
}

// TestStagingRetentionIsCapped feeds a drifting corpus — every document
// a label set never seen before, at two depths, through the same pooled
// nodes — and a few absurdly wide documents, and checks the pools stay
// within their caps while the schema itself grows without them.
func TestStagingRetentionIsCapped(t *testing.T) {
	a := NewAccum(EquivLabel)
	const docs = 40 * smallRecordGroups
	for i := 0; i < docs; i++ {
		inner := jsonvalue.ObjectFromPairs(fmt.Sprintf("in%04d", i), 1)
		outer := jsonvalue.ObjectFromPairs(fmt.Sprintf("out%04d", i), 1, "nest", jsonvalue.NewArray(inner))
		absorbValue(a.Doc(), jsonvalue.ObjectFromPairs("f", outer))
	}
	r := a.retained()
	// One pooled node per open frame's fields: f, {out, nest}, in.
	if r.PooledNodes > 8 {
		t.Errorf("pooled nodes = %d", r.PooledNodes)
	}
	// Each node on the dirty path keeps at most keptGroups groups:
	// the node for f, and the element node of nest below each group of it.
	if max := keptGroups * (1 + keptGroups); r.Groups > max {
		t.Errorf("retained groups = %d after %d drifting documents, cap allows %d: %+v", r.Groups, docs, max, r)
	}
	if got := DistinctRecordAlternatives(a.Seal().Fields[0].Type); got != docs {
		t.Errorf("schema holds %d label sets for f, want %d", got, docs)
	}

	// Under K the drift lands in one group's field table instead: a
	// table wider than keptSlots is not kept.
	k := NewAccum(EquivKind)
	for i := 0; i < 3*keptSlots; i++ {
		absorbValue(k.Doc(), jsonvalue.ObjectFromPairs("f", jsonvalue.ObjectFromPairs(fmt.Sprintf("k%05d", i), 1)))
	}
	if r := k.retained(); r.Slots > keptSlots {
		t.Errorf("K: retained slots = %d, cap allows %d: %+v", r.Slots, keptSlots, r)
	}
	if got := len(k.Seal().Fields[0].Type.Fields); got != 3*keptSlots {
		t.Errorf("K: schema holds %d fields under f, want %d", got, 3*keptSlots)
	}

	wide := make([]jsonvalue.Field, maxPooledNodes+500)
	for i := range wide {
		wide[i] = jsonvalue.Field{Name: fmt.Sprintf("k%05d", i), Value: jsonvalue.NewObject()}
	}
	absorbValue(a.Doc(), jsonvalue.NewObject(wide...))
	if r := a.retained(); r.PooledNodes > maxPooledNodes+1 || r.PooledRecords > maxPooledRecords {
		t.Errorf("pools exceed their length caps: %+v", r)
	}
	for _, or := range a.recPool {
		if cap(or.fields) > maxPooledNodes {
			t.Errorf("a pooled open record keeps room for %d staged fields", cap(or.fields))
		}
	}
	if d := a.stagingDirt(); d != "" {
		t.Error(d)
	}
}

// tdoc is a test document for the staging surface that, unlike a
// jsonvalue, can hold an Any atom: a Kind is an atom, a []tdoc an array
// and a trec a record (names distinct).
type tdoc any

type trec []tfield

type tfield struct {
	name string
	v    tdoc
}

// stageDoc drives d through the surface exactly as the walkers do.
func stageDoc(dst Target, d tdoc) {
	switch d := d.(type) {
	case Kind:
		dst.AbsorbKind(d)
	case []tdoc:
		el := dst.BeginArray()
		for _, x := range d {
			stageDoc(el, x)
		}
		dst.EndArray(len(d))
	case trec:
		r := dst.BeginRecord()
		for _, f := range d {
			stageDoc(r.Field(f.name), f.v)
		}
		dst.EndRecord(r, nil)
	}
}

// docType is d's type by the reference definition (infer.TypeOf).
func docType(d tdoc, e Equiv) *Type {
	switch d := d.(type) {
	case Kind:
		return Atom(d, 1)
	case []tdoc:
		ts := make([]*Type, len(d))
		for i, x := range d {
			ts[i] = docType(x, e)
		}
		return NewArrayCounted(MergeAll(ts, e), 1, len(d), len(d))
	default:
		r := d.(trec)
		fs := make([]Field, len(r))
		for i, f := range r {
			fs[i] = Field{Name: f.name, Type: docType(f.v, e), Count: 1}
		}
		return NewRecordCounted(1, fs...)
	}
}

// TestStagedRootRecordIsHeld pins the staged hold: a record staged at
// the root into a group with no table is held as the record its staged
// fields seal to, builds no table, and is handed back by Seal as that
// very node; a second record of its label set — staged or sealed, after
// a staged or a sealed first — folds exactly as MergeAll does, nested
// records, arrays of records and an Any-collapsed field included; and a
// reset turns held groups into tables, so the label set's next round
// stages without allocating. Below and past the label-key index.
func TestStagedRootRecordIsHeld(t *testing.T) {
	first := func(i int) trec {
		return trec{
			{fmt.Sprintf("f%03d", i), KInt},
			{"in", trec{{"a", KInt}}},
			{"list", []tdoc{trec{{"x", KStr}}}},
			{"v", KBool},
		}
	}
	second := trec{
		{"f000", KNum},
		{"in", trec{{"a", KStr}, {"b", KNull}}},
		{"list", []tdoc{trec{{"x", KInt}}, trec{{"y", KBool}}}},
		{"v", KAny},
	}
	for _, e := range []Equiv{EquivKind, EquivLabel} {
		for _, n := range []int{1, 3 * smallRecordGroups} {
			var docs []tdoc
			var types []*Type
			for i := 0; i < n; i++ {
				docs = append(docs, first(i))
				types = append(types, docType(first(i), e))
			}
			a := NewAccum(e)
			for _, d := range docs {
				stageDoc(a.Doc(), d)
			}
			got := a.Seal()
			if want := MergeAll(types, e); !identical(want, got) {
				t.Fatalf("%v, %d label sets: staged seal diverges from MergeAll\n want: %s\n got:  %s", e, n, want.StringCounted(), got.StringCounted())
			}
			// Under K every record fuses into one group, held only while
			// it has taken one record.
			if e == EquivLabel || n == 1 {
				live := a.node.recs[:a.node.live]
				alts := recordAlts(got)
				if len(live) != n || len(alts) != n {
					t.Fatalf("%v, %d label sets: %d live groups, %d record alternatives", e, n, len(live), len(alts))
				}
				for i, ra := range live {
					if ra.held == nil || ra.fields != nil {
						t.Fatalf("%v, %d label sets: group %d held=%v with a %d-slot table", e, n, i, ra.held != nil, len(ra.fields))
					}
					if alts[i] != ra.held {
						t.Errorf("%v, %d label sets: record alternative %d is not the held record", e, n, i)
					}
				}
			}

			// The second record of label set 0, after a staged or a
			// sealed first, itself staged or sealed.
			for _, order := range []struct {
				name                      string
				firstStaged, secondStaged bool
			}{{"staged then staged", true, true}, {"staged then Absorb", true, false}, {"Absorb then staged", false, true}} {
				b := NewAccum(e)
				for i, d := range docs {
					if order.firstStaged {
						stageDoc(b.Doc(), d)
					} else {
						b.Absorb(types[i])
					}
				}
				if order.secondStaged {
					stageDoc(b.Doc(), second)
				} else {
					b.Absorb(docType(second, e))
				}
				want := MergeAll(append(slices.Clone(types), docType(second, e)), e)
				if got := b.Seal(); !identical(want, got) {
					t.Errorf("%v, %d label sets, %s: diverges from MergeAll\n want: %s\n got:  %s", e, n, order.name, want.StringCounted(), got.StringCounted())
				}
			}

			// A reset keeps every held group (all within keptGroups) as
			// a clean table of its label set: the next round of one of
			// them stages without allocating.
			a.Reset()
			for _, ra := range a.node.recs {
				if ra.held != nil || ra.nrecs != 0 {
					t.Fatalf("%v, %d label sets: a reset left a group held or counted", e, n)
				}
			}
			if e == EquivLabel && len(a.node.recs) != n {
				t.Fatalf("%v, %d label sets: %d groups kept by the reset", e, n, len(a.node.recs))
			}
			last := docs[n-1]
			if allocs := testing.AllocsPerRun(20, func() {
				stageDoc(a.Doc(), last)
				a.Reset()
			}); allocs != 0 {
				t.Errorf("%v, %d label sets: a kept label set stages with %.1f allocs per round, want 0", e, n, allocs)
			}
		}
	}
}
