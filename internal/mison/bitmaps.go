// bitmaps.go is phases 1–3 of the pipeline for the projecting Parser:
// per-character bitmaps, escaped-character removal, and the string mask
// by bit-parallel prefix XOR.

package mison

import "math/bits"

// Bitmaps holds the per-character structural bitmaps of one JSON
// record, one bit per input byte, packed little-endian into uint64
// words (bit i of word w describes byte w*64+i).
type Bitmaps struct {
	// N is the input length in bytes.
	N int

	Backslash []uint64
	Quote     []uint64 // structural (unescaped) quotes
	Colon     []uint64
	Comma     []uint64
	LBrace    []uint64
	RBrace    []uint64
	LBracket  []uint64
	RBracket  []uint64

	// StringMask has bit i set when byte i lies inside a string
	// literal (the opening quote's bit is set, the closing quote's bit
	// is clear) — phase 3's prefix-XOR product.
	StringMask []uint64
}

func words(n int) int { return (n + 63) / 64 }

// build (re)initialises the bitmaps for data, reusing the word slices
// across records — the amortisation that keeps per-record projection
// allocation-free on a warm parser.
func (b *Bitmaps) build(data []byte) {
	nw := words(len(data))
	b.N = len(data)
	b.Backslash = sizeWords(b.Backslash, nw)
	b.Quote = sizeWords(b.Quote, nw)
	b.Colon = sizeWords(b.Colon, nw)
	b.Comma = sizeWords(b.Comma, nw)
	b.LBrace = sizeWords(b.LBrace, nw)
	b.RBrace = sizeWords(b.RBrace, nw)
	b.LBracket = sizeWords(b.LBracket, nw)
	b.RBracket = sizeWords(b.RBracket, nw)
	// Phase 1+2 on the shared SWAR classifier (swar.go): each 64-byte
	// bitmap word is classified eight bytes at a time with the same
	// word-at-a-time compares the Chunker uses, then the escaped
	// positions are struck out with escapedMask. The Backslash
	// bitmap keeps ALL backslashes (escaped ones included) while every
	// other class keeps only unescaped occurrences — the exact semantics
	// of the old byte-at-a-time scan, pinned by TestBitmapsMatchScalar
	// and the escape-equivalence suite.
	var escCarry uint64
	for w := 0; w < nw; w++ {
		base := w * 64
		var bs, qt, co, cm, lb, rb, lk, rk uint64
		for lane := 0; lane < 8 && base+lane*8 < len(data); lane++ {
			v := loadWord(data, base+lane*8)
			sh := uint(lane * 8)
			bs |= swarEq(v, '\\') << sh
			qt |= swarEq(v, '"') << sh
			co |= swarEq(v, ':') << sh
			cm |= swarEq(v, ',') << sh
			lb |= swarEq(v, '{') << sh
			rb |= swarEq(v, '}') << sh
			lk |= swarEq(v, '[') << sh
			rk |= swarEq(v, ']') << sh
		}
		var esc uint64
		if bs|escCarry != 0 { // escapes are rare; skip the walk entirely
			if n := len(data) - base; n < 64 {
				esc, escCarry = escapedMaskTail(bs, escCarry, n)
			} else {
				esc, escCarry = escapedMask(bs, escCarry)
			}
		}
		keep := ^esc
		b.Backslash[w] = bs
		b.Quote[w] = qt & keep
		b.Colon[w] = co & keep
		b.Comma[w] = cm & keep
		b.LBrace[w] = lb & keep
		b.RBrace[w] = rb & keep
		b.LBracket[w] = lk & keep
		b.RBracket[w] = rk & keep
	}
	// Phase 3: string mask via bit-parallel prefix XOR over the
	// structural quote bitmap, with an inter-word parity carry.
	b.StringMask = sizeWords(b.StringMask, nw)
	carry := uint64(0) // all-ones while inside a string across words
	for w := 0; w < nw; w++ {
		m := prefixXor(b.Quote[w]) ^ carry
		b.StringMask[w] = m
		if bits.OnesCount64(b.Quote[w])%2 == 1 {
			carry = ^carry
		}
	}
	// Filter structural characters that lie inside strings.
	for w := 0; w < nw; w++ {
		keep := ^b.StringMask[w]
		b.Colon[w] &= keep
		b.Comma[w] &= keep
		b.LBrace[w] &= keep
		b.RBrace[w] &= keep
		b.LBracket[w] &= keep
		b.RBracket[w] &= keep
	}
}

// sizeWords returns a slice of n words, reusing capacity. A reused
// slice is not cleared: every caller writes each word.
func sizeWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// prefixXor computes, for every bit position i, the XOR of bits 0..i —
// the carry-less multiply by ~0 that SIMD implementations get from
// PCLMULQDQ, here in log-steps of shifts.
func prefixXor(x uint64) uint64 {
	x ^= x << 1
	x ^= x << 2
	x ^= x << 4
	x ^= x << 8
	x ^= x << 16
	x ^= x << 32
	return x
}

// iterate calls fn for every set bit position of the packed bitmap, in
// increasing order.
func iterate(bm []uint64, n int, fn func(pos int)) {
	for w, word := range bm {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			pos := w*64 + bit
			if pos >= n {
				return
			}
			fn(pos)
			word &= word - 1
		}
	}
}
