package mison

import (
	"strconv"
)

// Event is one structural character occurrence.
type Event struct {
	Pos int
	// Ch is one of ':' ',' '{' '}' '[' ']'.
	Ch byte
	// Depth is the nesting depth of the character's context: a
	// top-level record's '{' and '}' have depth 0, and the colons and
	// commas separating its fields have depth 1.
	Depth int
}

// Index is the structural index of one record: phase 4's leveled
// bitmaps materialised as per-depth position lists, which is what the
// field-jumping queries need.
type Index struct {
	Data   []byte
	Bitmap *Bitmaps
	Events []Event
	// Colons[d] lists event indexes of depth-d colons in order; the
	// speculative parser addresses them by ordinal.
	Colons map[int][]int
	// MaxDepth is the deepest context observed.
	MaxDepth int

	// merged is scratch storage for the union bitmap, reused across
	// rebuilds; openStack tracks unmatched opener positions for exact
	// error attribution.
	merged    []uint64
	openStack []int
}

// rebuild reinitialises the index for a new record, reusing the event
// and bitmap storage of previous records.
func (ix *Index) rebuild(data []byte) error {
	ix.Data = data
	ix.Bitmap.build(data)
	ix.Events = ix.Events[:0]
	for d := range ix.Colons {
		ix.Colons[d] = ix.Colons[d][:0]
	}
	if ix.Colons == nil {
		ix.Colons = make(map[int][]int)
	}
	ix.MaxDepth = 0
	ix.openStack = ix.openStack[:0]
	bm := ix.Bitmap
	merged := ix.merged
	if cap(merged) < len(bm.Colon) {
		merged = make([]uint64, len(bm.Colon))
	}
	merged = merged[:len(bm.Colon)]
	ix.merged = merged
	for w := range merged {
		merged[w] = bm.Colon[w] | bm.Comma[w] | bm.LBrace[w] | bm.RBrace[w] | bm.LBracket[w] | bm.RBracket[w]
	}
	depth := 0
	var err error
	iterate(merged, bm.N, func(pos int) {
		if err != nil {
			return
		}
		w, bit := pos>>6, uint(pos&63)
		mask := uint64(1) << bit
		var ch byte
		switch {
		case bm.Colon[w]&mask != 0:
			ch = ':'
		case bm.Comma[w]&mask != 0:
			ch = ','
		case bm.LBrace[w]&mask != 0:
			ch = '{'
		case bm.RBrace[w]&mask != 0:
			ch = '}'
		case bm.LBracket[w]&mask != 0:
			ch = '['
		default:
			ch = ']'
		}
		switch ch {
		case '{', '[':
			ix.Events = append(ix.Events, Event{Pos: pos, Ch: ch, Depth: depth})
			ix.openStack = append(ix.openStack, pos)
			depth++
			if depth > ix.MaxDepth {
				ix.MaxDepth = depth
			}
		case '}', ']':
			depth--
			if depth < 0 {
				err = &IndexError{Offset: pos, Msg: "unbalanced " + string(ch)}
				return
			}
			ix.openStack = ix.openStack[:len(ix.openStack)-1]
			ix.Events = append(ix.Events, Event{Pos: pos, Ch: ch, Depth: depth})
		case ':':
			ix.Events = append(ix.Events, Event{Pos: pos, Ch: ch, Depth: depth})
			ix.Colons[depth] = append(ix.Colons[depth], len(ix.Events)-1)
		default: // ','
			ix.Events = append(ix.Events, Event{Pos: pos, Ch: ch, Depth: depth})
		}
	})
	if err != nil {
		return err
	}
	if depth != 0 {
		// The innermost unclosed opener names the defect exactly.
		return &IndexError{
			Offset: ix.openStack[len(ix.openStack)-1],
			Msg:    strconv.Itoa(depth) + " unclosed containers, innermost opened",
		}
	}
	return nil
}

// RecordSpan locates the outermost object: returns the byte range
// [start, end] of its braces.
func (ix *Index) RecordSpan() (start, end int, err error) {
	for _, ev := range ix.Events {
		if ev.Depth == 0 && ev.Ch == '{' {
			start = ev.Pos
			// Matching close is the depth-0 '}'.
			for i := len(ix.Events) - 1; i >= 0; i-- {
				if ix.Events[i].Depth == 0 && ix.Events[i].Ch == '}' {
					return start, ix.Events[i].Pos, nil
				}
			}
		}
	}
	return 0, 0, &IndexError{Offset: 0, Msg: "no top-level object"}
}

// keyMatches compares the colon's key bytes against want without
// allocating (the speculative probe's verification step).
func (ix *Index) keyMatches(colonPos int, want string) bool {
	j := colonPos - 1
	for j >= 0 && isSpace(ix.Data[j]) {
		j--
	}
	if j < 0 || ix.Data[j] != '"' {
		return false
	}
	start := j - len(want)
	if start < 1 || ix.Data[start-1] != '"' {
		return false
	}
	return string(ix.Data[start:j]) == want
}

// ValueSpan returns the byte range (exclusive of separators) of the
// value following the colon event at index evIdx, bounded by the
// enclosing container's span end.
func (ix *Index) ValueSpan(evIdx int, containerEnd int) (int, int) {
	colon := ix.Events[evIdx]
	start := colon.Pos + 1
	end := containerEnd
	for i := evIdx + 1; i < len(ix.Events); i++ {
		ev := ix.Events[i]
		if ev.Pos >= containerEnd {
			break
		}
		// A sibling separator ends the value. The value's own closing
		// brace/bracket sits at the SAME depth as the colon (open and
		// close are both recorded at the container's outer depth), so
		// only a shallower close means the enclosing container ended.
		if ev.Depth == colon.Depth && ev.Ch == ',' {
			end = ev.Pos
			break
		}
		if ev.Depth < colon.Depth {
			end = ev.Pos
			break
		}
	}
	return start, end
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
