package mison

import (
	"math/bits"
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

	// base is the absolute stream offset of Data[0]; every *IndexError
	// this index reports carries base-relative — that is, absolute —
	// offsets.
	base int

	// merged is scratch storage for the union bitmap, reused across
	// rebuilds; openStack tracks unmatched opener positions for exact
	// error attribution.
	merged    []uint64
	openStack []int
}

// BuildIndex runs the full bitmap pipeline and extracts leveled
// structural positions. It fails with an *IndexError on unbalanced
// nesting (a malformed record), mirroring Mison's minimal structural
// validation.
func BuildIndex(data []byte) (*Index, error) { return BuildIndexAt(data, 0) }

// BuildIndexAt is BuildIndex for a record whose first byte sits at
// absolute stream offset base: any *IndexError carries absolute
// offsets, so callers splitting a larger input keep exact attribution.
func BuildIndexAt(data []byte, base int) (*Index, error) {
	ix := NewIndex()
	if err := ix.rebuild(data, base); err != nil {
		return nil, err
	}
	return ix, nil
}

// NewIndex returns an empty reusable Index; bind it to a record with
// Reset. One warm index per worker amortises the event, colon-list and
// bitmap storage across an arbitrary number of records, the same
// amortisation the projecting Parser has always had.
func NewIndex() *Index { return &Index{Bitmap: &Bitmaps{}} }

// Reset rebinds the index to a record whose first byte sits at absolute
// stream offset base, reusing all storage. It fails with an *IndexError
// (absolute offsets) on unbalanced nesting, exactly as BuildIndexAt
// does.
func (ix *Index) Reset(data []byte, base int) error { return ix.rebuild(data, base) }

// rebuild reinitialises the index for a new record, reusing the event
// and bitmap storage of previous records.
func (ix *Index) rebuild(data []byte, base int) error {
	ix.Data = data
	ix.base = base
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
				err = &IndexError{Offset: base + pos, Msg: "unbalanced " + string(ch)}
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
			Offset: base + ix.openStack[len(ix.openStack)-1],
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
	return 0, 0, &IndexError{Offset: ix.base, Msg: "no top-level object"}
}

// colonKey extracts the field name owning the colon at byte position
// colonPos by scanning back over whitespace to the closing quote and
// then to its structural opening quote. Keys are short, so the
// backward byte scan is negligible next to the avoided tokenisation.
func (ix *Index) colonKey(colonPos int) (string, bool) {
	j := colonPos - 1
	for j >= 0 && isSpace(ix.Data[j]) {
		j--
	}
	if j < 0 || ix.Data[j] != '"' {
		return "", false
	}
	// Find the structural opening quote: the nearest earlier quote bit.
	open := ix.prevQuote(j - 1)
	if open < 0 {
		return "", false
	}
	return string(ix.Data[open+1 : j]), true
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

// prevQuote returns the largest structural-quote position <= from.
func (ix *Index) prevQuote(from int) int {
	if from < 0 {
		return -1
	}
	w := from >> 6
	word := ix.Bitmap.Quote[w] & ((uint64(1) << uint(from&63+1)) - 1)
	for {
		if word != 0 {
			return w*64 + 63 - bits.LeadingZeros64(word)
		}
		w--
		if w < 0 {
			return -1
		}
		word = ix.Bitmap.Quote[w]
	}
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
