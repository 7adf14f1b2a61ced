package mison

import "errors"

// The one-shot builders below are the reference the tests hold the
// amortised builds (Parser's reused index, TokenSource's bitmaps) to.

// BuildBitmaps runs phases 1–3 of the Mison pipeline.
func BuildBitmaps(data []byte) *Bitmaps {
	b := &Bitmaps{}
	b.build(data)
	return b
}

// InString reports whether byte position i lies inside a string
// literal.
func (b *Bitmaps) InString(i int) bool {
	return b.StringMask[i>>6]&(1<<uint(i&63)) != 0
}

// BuildIndex runs the full bitmap pipeline and extracts leveled
// structural positions. It fails with an *IndexError on unbalanced
// nesting (a malformed record), mirroring Mison's minimal structural
// validation.
func BuildIndex(data []byte) (*Index, error) { return BuildIndexAt(data, 0) }

// BuildIndexAt is BuildIndex for a record whose first byte sits at
// absolute stream offset base: an *IndexError's record-relative offset
// is rebased onto it.
func BuildIndexAt(data []byte, base int) (*Index, error) {
	ix := NewIndex()
	if err := ix.rebuild(data); err != nil {
		var ie *IndexError
		if errors.As(err, &ie) {
			ie.Offset += base
		}
		return nil, err
	}
	return ix, nil
}

// NewIndex returns an empty reusable Index; bind it to a record with
// rebuild.
func NewIndex() *Index { return &Index{Bitmap: &Bitmaps{}} }
