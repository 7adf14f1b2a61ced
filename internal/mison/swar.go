package mison

// swar.go is the word-at-a-time byte classifier of the package. It is
// the Go-with-stdlib stand-in for Mison's AVX byte compares: eight
// input bytes are loaded as one uint64 and classified with branch-free
// arithmetic, producing one mask bit per byte, and the per-lane masks
// are packed into the same little-endian uint64 bitmap words the rest
// of the pipeline consumes. It comes in two shapes: swarEq, one class
// of one lane gathered by a multiply (the Chunker and the projecting
// Parser's Bitmaps.build), and classifyBlock, the streamed path's
// kernel (TokenSource.index), which computes every class of a 64-byte
// block's eight lanes and gathers each with one bit transpose.
//
// The formulas are chosen to be position-exact (no inter-byte carries),
// not merely any-byte predicates: zero detection goes through the
// saturating 0x7F add rather than the classic subtract-borrow trick,
// whose borrows smear across bytes.

import (
	"encoding/binary"
	"math/bits"
)

const (
	swarOnes  = 0x0101010101010101
	swarHighs = 0x8080808080808080
)

// swarMoveMask gathers the high bit of every byte of v into the low 8
// bits of the result (byte k's high bit becomes bit k) — the SWAR
// equivalent of SSE's PMOVMSKB. The multiply shifts bit 8k+7 to bit
// 56+k; the landing positions 56+8k-7j are pairwise distinct for
// k,j in 0..7, so no partial products ever carry into the result byte.
func swarMoveMask(v uint64) uint64 {
	return ((v & swarHighs) * 0x0002040810204081) >> 56
}

// swarEq returns one bit per byte of v equal to c (bit k set iff byte k
// == c). Exact per-position: a byte is zero iff its low 7 bits add into
// 0x7F without setting the high bit and its own high bit is clear.
func swarEq(v uint64, c byte) uint64 {
	x := v ^ (swarOnes * uint64(c))
	t := (x & ^uint64(swarHighs)) + 0x7f7f7f7f7f7f7f7f
	return swarMoveMask(^(t | x))
}

// classifyBlock is the structural index's kernel (TokenSource.index):
// it reads one 64-byte block as eight little-endian lanes and returns
// one bit per byte (bit i for b[i]) of five classes: quotes and
// backslashes (escaped or not), dirty bytes (backslashes and control
// bytes < 0x20), non-ASCII bytes, and the six structural characters
// { } [ ] : , (in strings or not). Each lane sets bit j of each byte of
// a class's accumulator, j the lane, so an accumulator is an 8×8
// byte-by-lane bit matrix and transpose8 puts it in input order. The
// lanes are spelled out because Go does not unroll loops.
func classifyBlock(b *[64]byte) (quote, backslash, dirty, nonASCII, structural uint64) {
	v0, v1, v2, v3 := binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:]), binary.LittleEndian.Uint64(b[16:]), binary.LittleEndian.Uint64(b[24:])
	v4, v5, v6, v7 := binary.LittleEndian.Uint64(b[32:]), binary.LittleEndian.Uint64(b[40:]), binary.LittleEndian.Uint64(b[48:]), binary.LittleEndian.Uint64(b[56:])
	var q, bs, ct, na, st uint64
	q, bs, ct, na = textLane(q, bs, ct, na, v0, 0)
	st = structuralLane(st, v0, 0)
	q, bs, ct, na = textLane(q, bs, ct, na, v1, 1)
	st = structuralLane(st, v1, 1)
	q, bs, ct, na = textLane(q, bs, ct, na, v2, 2)
	st = structuralLane(st, v2, 2)
	q, bs, ct, na = textLane(q, bs, ct, na, v3, 3)
	st = structuralLane(st, v3, 3)
	q, bs, ct, na = textLane(q, bs, ct, na, v4, 4)
	st = structuralLane(st, v4, 4)
	q, bs, ct, na = textLane(q, bs, ct, na, v5, 5)
	st = structuralLane(st, v5, 5)
	q, bs, ct, na = textLane(q, bs, ct, na, v6, 6)
	st = structuralLane(st, v6, 6)
	q, bs, ct, na = textLane(q, bs, ct, na, v7, 7)
	st = structuralLane(st, v7, 7)
	return transpose8(q), transpose8(bs), transpose8(bs | ct), transpose8(na), transpose8(st &^ ct)
}

// The lane classifiers compute each class of the eight bytes v as 0x80
// in each byte of the class, and OR it into its accumulator shifted
// down to bit j. A byte of v7 ^ c, for an ASCII c, is zero exactly when
// adding 0x7F to it leaves its high bit clear (no carry leaves a byte);
// masking with the ASCII bytes' 0x80 then makes each compare exact.
const swarLow7 = 0x7f7f7f7f7f7f7f7f

// textLane classifies quotes, backslashes, control bytes (adding 0x60
// to the low seven bits reaches 0x80 from 0x20 up) and non-ASCII bytes.
func textLane(q, bs, ct, na, v uint64, j uint) (uint64, uint64, uint64, uint64) {
	v7, ascii := v&swarLow7, ^v&swarHighs
	return q | ^(v7^(swarOnes*'"')+swarLow7)&ascii>>(7-j),
		bs | ^(v7^(swarOnes*'\\')+swarLow7)&ascii>>(7-j),
		ct | ^(v7+0x6060606060606060)&ascii>>(7-j),
		na | v&swarHighs>>(7-j)
}

// structuralLane classifies { } [ ] : , by four compares on v | 0x20,
// which folds [ onto { and ] onto }. The only other bytes it folds onto
// the four are 0x0C (onto ,) and 0x1A (onto :), both control bytes,
// which classifyBlock strikes.
func structuralLane(st, v uint64, j uint) uint64 {
	u7 := v&swarLow7 | 0x2020202020202020
	return st | ^((u7^(swarOnes*'{')+swarLow7)&(u7^(swarOnes*'}')+swarLow7)&(u7^(swarOnes*',')+swarLow7)&(u7^(swarOnes*':')+swarLow7))&^v&swarHighs>>(7-j)
}

// transpose8 transposes x read as an 8×8 bit matrix, bit c of byte r
// to bit r of byte c, in three rounds of delta swaps (Hacker's Delight
// §7-3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// loadWord loads up to 8 bytes of b starting at off as a little-endian
// word; bytes past the end of b read as zero.
func loadWord(b []byte, off int) uint64 {
	if off+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[off:])
	}
	var v uint64
	for i := off; i < len(b); i++ {
		v |= uint64(b[i]) << (8 * uint(i-off))
	}
	return v
}

// escapedMask computes, for one 64-byte bitmap word of backslash
// positions, the positions escaped by a preceding unescaped backslash —
// phase 2 of the Mison pipeline. carryIn is 1 when byte 0 of this word
// is escaped by the previous word's trailing backslash; carryOut is 1
// when byte 0 of the NEXT word is escaped.
//
// The walk touches only set backslash bits, so its cost is proportional
// to the (rare) backslash density rather than to the word size, and it
// is scalar-equivalent by construction: an unescaped backslash escapes
// exactly the byte after it, and an escaped backslash escapes nothing.
func escapedMask(backslash uint64, carryIn uint64) (esc uint64, carryOut uint64) {
	esc = carryIn & 1
	b := backslash &^ esc // a backslash escaped from the previous word escapes nothing
	for b != 0 {
		p := uint(bits.TrailingZeros64(b))
		if p == 63 {
			return esc, 1
		}
		esc |= 1 << (p + 1)
		b &^= 1 << (p + 1) // the escaped next byte cannot itself escape
		b &= b - 1         // consume bit p
	}
	return esc, 0
}

// escapedMaskTail is escapedMask for a final partial word of n valid
// bytes: an escape landing on position n (one past the data) becomes
// the carry into the next block instead of a dead bit.
func escapedMaskTail(backslash uint64, carryIn uint64, n int) (esc uint64, carryOut uint64) {
	esc, carryOut = escapedMask(backslash, carryIn)
	if n < 64 {
		if esc&(1<<uint(n)) != 0 {
			carryOut = 1
		}
		esc &= (1 << uint(n)) - 1
	}
	return esc, carryOut
}
