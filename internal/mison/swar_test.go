package mison

import (
	"testing"
)

// xorshift is the deterministic PRNG the package tests share.
type xorshift uint64

func (s *xorshift) next() uint64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = xorshift(x)
	return x
}

// TestSwarClassifiersMatchScalar pins swarEq against the per-byte
// definition on random words and on adversarial words built from the
// interesting bytes themselves. The block kernel's classes are pinned
// by TestIndexClassifiesEveryByteEverywhere.
func TestSwarClassifiersMatchScalar(t *testing.T) {
	interesting := []byte{0, 1, 0x1f, 0x20, '"', '\\', 0x7f, 0x80, 0xff, '{', '}', 'a'}
	s := xorshift(99)
	words := make([][8]byte, 0, 4096)
	for i := 0; i < 2000; i++ {
		var w [8]byte
		r := s.next()
		for j := range w {
			w[j] = byte(r >> (8 * j))
		}
		words = append(words, w)
	}
	for i := 0; i < 2000; i++ {
		var w [8]byte
		for j := range w {
			w[j] = interesting[s.next()%uint64(len(interesting))]
		}
		words = append(words, w)
	}
	for _, w := range words {
		v := loadWord(w[:], 0)
		for _, c := range []byte{'"', '\\', '\n', '{', '}', '[', ']'} {
			got := swarEq(v, c)
			var want uint64
			for j, b := range w {
				if b == c {
					want |= 1 << j
				}
			}
			if got != want {
				t.Fatalf("swarEq(%x, %q) = %08b, want %08b", w, c, got, want)
			}
		}
	}
}

// TestLoadWordTail pins the zero-padded partial load.
func TestLoadWordTail(t *testing.T) {
	b := []byte{1, 2, 3}
	if got := loadWord(b, 0); got != 0x030201 {
		t.Fatalf("loadWord tail = %#x", got)
	}
	if got := loadWord(b, 2); got != 0x03 {
		t.Fatalf("loadWord tail at 2 = %#x", got)
	}
}

// escapedRef is the scalar escape tracker of Bitmaps.build: a byte is
// escaped iff the preceding byte is a backslash that is not itself
// escaped.
func escapedRef(isBackslash []bool) []bool {
	out := make([]bool, len(isBackslash))
	escaped := false
	for i, bs := range isBackslash {
		if escaped {
			out[i] = true
			escaped = false
			continue
		}
		if bs {
			escaped = true
		}
	}
	return out
}

// TestEscapedMaskMatchesScalar drives escapedMask word by word over
// random backslash layouts — including runs spanning word and tail
// boundaries — and demands agreement with the scalar tracker.
func TestEscapedMaskMatchesScalar(t *testing.T) {
	s := xorshift(7)
	for trial := 0; trial < 500; trial++ {
		n := int(s.next()%300) + 1
		isBS := make([]bool, n)
		// Mix isolated backslashes and runs, biased towards boundaries.
		for i := 0; i < n; i++ {
			switch s.next() % 5 {
			case 0:
				isBS[i] = true
			case 1:
				for j := i; j < n && j < i+int(s.next()%6); j++ {
					isBS[j] = true
				}
			}
		}
		want := escapedRef(isBS)

		var carry uint64
		got := make([]bool, n)
		for wordStart := 0; wordStart < n; wordStart += 64 {
			wn := n - wordStart
			if wn > 64 {
				wn = 64
			}
			var bs uint64
			for j := 0; j < wn; j++ {
				if isBS[wordStart+j] {
					bs |= 1 << uint(j)
				}
			}
			var esc uint64
			esc, carry = escapedMaskTail(bs, carry, wn)
			for j := 0; j < wn; j++ {
				got[wordStart+j] = esc&(1<<uint(j)) != 0
			}
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: escaped[%d] = %v, want %v (layout %v)", trial, i, got[i], want[i], isBS)
			}
		}
	}
}

// TestEscapedMaskWordBoundary pins the exact carry cases: a run ending
// at bit 63 and a run ending at a partial-word tail.
func TestEscapedMaskWordBoundary(t *testing.T) {
	// Single backslash at bit 63: escapes bit 0 of the next word.
	esc, carry := escapedMask(1<<63, 0)
	if esc != 0 || carry != 1 {
		t.Fatalf("bit63 backslash: esc=%x carry=%d", esc, carry)
	}
	esc, _ = escapedMask(0, carry)
	if esc != 1 {
		t.Fatalf("carried escape: esc=%x", esc)
	}
	// Two backslashes at 62,63: 63 is escaped, nothing carries.
	esc, carry = escapedMask(3<<62, 0)
	if esc != 1<<63 || carry != 0 {
		t.Fatalf("bit62-63 run: esc=%x carry=%d", esc, carry)
	}
	// Partial word of 10 bytes with a backslash at byte 9: the escape
	// falls on byte 10 — the next block's first byte.
	esc, carry = escapedMaskTail(1<<9, 0, 10)
	if esc != 0 || carry != 1 {
		t.Fatalf("tail backslash: esc=%x carry=%d", esc, carry)
	}
}

// TestPrefixXorIsPrefixParity cross-checks the carry-less multiply
// against a bit loop (used by both the bitmap phase 3 and the chunker).
func TestPrefixXorIsPrefixParity(t *testing.T) {
	s := xorshift(3)
	for trial := 0; trial < 200; trial++ {
		x := s.next()
		got := prefixXor(x)
		var want uint64
		parity := uint64(0)
		for i := 0; i < 64; i++ {
			parity ^= (x >> uint(i)) & 1
			want |= parity << uint(i)
		}
		if got != want {
			t.Fatalf("prefixXor(%#x) = %#x, want %#x", x, got, want)
		}
	}
}
