package mison

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// The package carries two escape-removal implementations: the scalar
// escaped-state loop folded into Bitmaps.build's phase 1+2 (the
// projecting Parser's path), and the SWAR escapedMask/escapedMaskTail
// walk the Chunker and TokenSource assemble their bitmaps with. Their
// equivalence used to be pinned only implicitly, through end-to-end
// chunker and tokenizer sweeps; the tests here pit them against each
// other directly on the same bytes (ROADMAP open item 1).

// scalarEscapeMask replays Bitmaps.build's escape rule — an unescaped
// backslash escapes exactly the byte after it, anywhere in the input —
// as a standalone position mask.
func scalarEscapeMask(data []byte) []uint64 {
	masks := make([]uint64, words(len(data)))
	escaped := false
	for i, c := range data {
		if escaped {
			masks[i>>6] |= 1 << uint(i&63)
			escaped = false
			continue
		}
		if c == '\\' {
			escaped = true
		}
	}
	return masks
}

// swarEscapeMask computes the same mask through the SWAR pipeline
// exactly as the Chunker does: backslash bits from the word-at-a-time
// classifier, escaped positions from escapedMaskTail with the
// cross-word carry.
func swarEscapeMask(data []byte) []uint64 {
	masks := make([]uint64, words(len(data)))
	carry := uint64(0)
	for w := 0; w*64 < len(data); w++ {
		start := w * 64
		n := len(data) - start
		if n > 64 {
			n = 64
		}
		var backslash uint64
		lane := 0
		for ; lane+8 <= n; lane += 8 {
			backslash |= swarEq(loadWord(data, start+lane), '\\') << uint(lane)
		}
		for ; lane < n; lane++ {
			if data[start+lane] == '\\' {
				backslash |= 1 << uint(lane)
			}
		}
		masks[w], carry = escapedMaskTail(backslash, carry, n)
	}
	return masks
}

// assertEscapeImplementationsAgree checks both the escape masks and
// their downstream product — the structural (unescaped) quote bitmap —
// word for word: the SWAR mask against the scalar replay, and the
// scalar replay against the Quote bitmap Bitmaps.build actually emits.
func assertEscapeImplementationsAgree(t *testing.T, label string, data []byte) bool {
	t.Helper()
	scalar := scalarEscapeMask(data)
	swar := swarEscapeMask(data)
	ok := true
	for w := range scalar {
		if scalar[w] != swar[w] {
			t.Errorf("%s: escape mask word %d: scalar %064b != swar %064b", label, w, scalar[w], swar[w])
			ok = false
		}
	}
	b := BuildBitmaps(data)
	for w := range scalar {
		var wantQuote uint64
		for lane := 0; lane < 64 && w*64+lane < len(data); lane++ {
			if data[w*64+lane] == '"' && scalar[w]&(1<<uint(lane)) == 0 {
				wantQuote |= 1 << uint(lane)
			}
		}
		if b.Quote[w] != wantQuote {
			t.Errorf("%s: structural quote word %d: bitmaps %064b != scalar-derived %064b", label, w, b.Quote[w], wantQuote)
			ok = false
		}
	}
	return ok
}

// escapeAdversarial holds the layouts where escape carries are hardest:
// backslash runs of every parity straddling the 64-byte word boundary,
// escaped quotes at word edges, and all-backslash input.
var escapeAdversarial = map[string]string{
	"empty":                "",
	"lone-backslash":       `\`,
	"escaped-quote":        `\"`,
	"double-backslash":     `\\`,
	"triple-then-quote":    `\\\"`,
	"all-backslash-63":     strings.Repeat(`\`, 63),
	"all-backslash-64":     strings.Repeat(`\`, 64),
	"all-backslash-65":     strings.Repeat(`\`, 65),
	"all-backslash-129":    strings.Repeat(`\`, 129),
	"run-ends-at-word":     strings.Repeat("x", 62) + `\"` + strings.Repeat("y", 10),
	"run-straddles-word":   strings.Repeat("x", 63) + `\"` + strings.Repeat("y", 10),
	"odd-run-into-word":    strings.Repeat("x", 59) + strings.Repeat(`\`, 5) + `"tail"`,
	"even-run-into-word":   strings.Repeat("x", 58) + strings.Repeat(`\`, 6) + `"tail"`,
	"alternating":          strings.Repeat(`\"`, 70),
	"quotes-only":          strings.Repeat(`"`, 130),
	"json-ish":             `{"a": "x\\", "b\"c": "\\\"", "d": [1, "\\\\"]}`,
	"tail-escape-pending":  strings.Repeat("x", 64) + `abc\`,
	"carry-into-tail-word": strings.Repeat(`\`, 64) + `"x`,
}

// TestEscapeRemovalImplementationsAgreeAdversarial drives the pair over
// the escapeAdversarial layouts.
func TestEscapeRemovalImplementationsAgreeAdversarial(t *testing.T) {
	for name, data := range escapeAdversarial {
		assertEscapeImplementationsAgree(t, name, []byte(data))
	}
}

// TestEscapeRemovalImplementationsAgreeRandom is the property test:
// random byte strings drawn from a backslash- and quote-heavy alphabet
// (the densities that maximise escape interactions), lengths chosen to
// land on, before and past word boundaries.
func TestEscapeRemovalImplementationsAgreeRandom(t *testing.T) {
	alphabet := []byte(`\\\\""abc{}[]:,` + "\n")
	f := func(seed int64, length uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(length % 300)
		data := make([]byte, n)
		for i := range data {
			data[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return assertEscapeImplementationsAgree(t, "random", data)
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(424242))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
