package mison

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/jsontext"
	"repro/internal/jsonvalue"
)

// Parser projects a fixed set of field paths out of a stream of JSON
// records, building values only for the projected fields — Mison's
// "parse what the analytics task needs" contract. A Parser learns
// field positions across records (the speculative pattern tree): if
// field "user.id" was the 4th colon of its object in previous records,
// the next record is probed at the 4th colon first and fully scanned
// only on a miss.
// A Parser is not safe for concurrent use: it reuses per-record index
// storage across ParseRecord calls (Mison's amortised structural
// index). Use one Parser per goroutine.
type Parser struct {
	paths [][]string // parsed dotted paths

	// ix is the reusable structural index.
	ix *Index

	// tree is the speculative pattern tree: for every (path prefix,
	// field) step, the colon ordinals that carried the field before,
	// most-recently-hit first.
	tree map[string][]int

	// Hits and Misses count speculation outcomes, for the E6 report.
	Hits, Misses int
}

// NewParser builds a projecting parser for dotted field paths such as
// "id" or "user.screen_name". Paths must be non-empty.
func NewParser(paths ...string) (*Parser, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("mison: no projection paths")
	}
	p := &Parser{tree: make(map[string][]int)}
	for _, raw := range paths {
		parts := strings.Split(raw, ".")
		for _, part := range parts {
			if part == "" {
				return nil, fmt.Errorf("mison: bad path %q", raw)
			}
		}
		p.paths = append(p.paths, parts)
	}
	return p, nil
}

// MustNewParser panics on error; for fixtures.
func MustNewParser(paths ...string) *Parser {
	p, err := NewParser(paths...)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseRecord extracts the projected fields from one JSON record. The
// result slice is aligned with the constructor's paths; fields absent
// from the record yield nil entries.
func (p *Parser) ParseRecord(data []byte) ([]*jsonvalue.Value, error) {
	if p.ix == nil {
		p.ix = &Index{Bitmap: &Bitmaps{}}
	}
	ix := p.ix
	if err := ix.rebuild(data, 0); err != nil {
		return nil, err
	}
	objStart, objEnd, err := ix.RecordSpan()
	if err != nil {
		return nil, err
	}
	out := make([]*jsonvalue.Value, len(p.paths))
	for i, path := range p.paths {
		v, err := p.project(ix, objStart, objEnd, 1, path, "")
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// project resolves one path step by step. treeKey identifies the
// (prefix, field) step in the pattern tree.
func (p *Parser) project(ix *Index, objStart, objEnd, depth int, path []string, prefix string) (*jsonvalue.Value, error) {
	field := path[0]
	key := prefix + "\x00" + field
	evIdx, ok := p.findField(ix, objStart, objEnd, depth, field, key)
	if !ok {
		return nil, nil // absent field: not an error, per projection semantics
	}
	vStart, vEnd := ix.ValueSpan(evIdx, objEnd)
	if len(path) == 1 {
		v, err := jsontext.Parse(ix.Data[vStart:vEnd])
		if err != nil {
			// Rebase the parse error's record-relative offset onto the
			// stream so attribution stays exact for sliced records.
			if se, ok := err.(*jsontext.SyntaxError); ok {
				err = se.Rebased(ix.base + vStart)
			}
			return nil, fmt.Errorf("mison: field %q: %w", field, err)
		}
		return v, nil
	}
	// Descend: the value must be an object; locate its brace span.
	innerStart, innerEnd, ok := ix.objectWithin(vStart, vEnd)
	if !ok {
		return nil, nil // path expects an object but the value is not one
	}
	return p.project(ix, innerStart, innerEnd, depth+1, path[1:], key)
}

// findField locates the colon of field within the object span,
// speculating with learned ordinals first. Ordinals are relative to
// the object's first colon, so the probe is O(1) array indexing into
// the depth's colon list — no per-call allocation.
func (p *Parser) findField(ix *Index, objStart, objEnd, depth int, field, treeKey string) (int, bool) {
	all := ix.Colons[depth]
	base := sort.Search(len(all), func(i int) bool {
		return ix.Events[all[i]].Pos > objStart
	})
	inSpan := func(i int) bool {
		return i < len(all) && ix.Events[all[i]].Pos < objEnd
	}
	// Speculative probes.
	for _, ordinal := range p.tree[treeKey] {
		if i := base + ordinal; inSpan(i) && ix.keyMatches(ix.Events[all[i]].Pos, field) {
			p.Hits++
			return all[i], true
		}
	}
	p.Misses++
	// Full scan, then learn.
	for i := base; inSpan(i); i++ {
		if ix.keyMatches(ix.Events[all[i]].Pos, field) {
			p.learn(treeKey, i-base)
			return all[i], true
		}
	}
	return 0, false
}

// learn records a hit ordinal, most-recent-first, bounded to a few
// candidates per step as in Mison's pattern trees.
func (p *Parser) learn(treeKey string, ordinal int) {
	const maxCandidates = 4
	existing := p.tree[treeKey]
	out := make([]int, 0, maxCandidates)
	out = append(out, ordinal)
	for _, o := range existing {
		if o != ordinal && len(out) < maxCandidates {
			out = append(out, o)
		}
	}
	p.tree[treeKey] = out
}

// objectWithin finds the '{'..'}' span of the single object occupying
// byte range [vStart, vEnd).
func (ix *Index) objectWithin(vStart, vEnd int) (int, int, bool) {
	var open = -1
	openDepth := -1
	for i := range ix.Events {
		ev := ix.Events[i]
		if ev.Pos < vStart {
			continue
		}
		if ev.Pos >= vEnd {
			break
		}
		if open < 0 {
			if ev.Ch != '{' {
				return 0, 0, false
			}
			open = ev.Pos
			openDepth = ev.Depth
			continue
		}
		if ev.Ch == '}' && ev.Depth == openDepth {
			return open, ev.Pos, true
		}
	}
	return 0, 0, false
}
