package ir

import (
	"unicode/utf8"

	"flexpath/internal/xmltree"
)

// Snippet returns a fragment of the node's subtree text of at most max
// bytes, centered on the first occurrence of any of the expression's
// terms, with the document's own casing preserved. Fragment bounds are
// snapped to rune boundaries so a multi-byte UTF-8 rune is never split
// (a split rune turns into U+FFFD under JSON encoding). It backs result
// presentation in the CLI, the HTTP API and examples.
func (ix *Index) Snippet(n xmltree.NodeID, e Expr, max int) string {
	// A non-positive budget asks for no text: return "" rather than the
	// bare ellipses the truncation paths below would degenerate to.
	if max <= 0 {
		return ""
	}
	text := ix.doc.SubtreeText(n)
	if len(text) <= max {
		return text
	}
	terms := Terms(e)
	pos := -1
	toks := Tokenize(text)
	// Find the byte offset of the first matching token by re-scanning.
	if len(terms) > 0 && len(toks) > 0 {
		termSet := make(map[string]bool, len(terms))
		for _, t := range terms {
			termSet[t] = true
		}
		off := 0
		for off < len(text) {
			start, end := nextWord(text, off)
			if start < 0 {
				break
			}
			if termSet[Stem(lower(text[start:end]))] {
				pos = start
				break
			}
			off = end
		}
	}
	if pos < 0 {
		return text[:SnapRuneDown(text, max)] + "…"
	}
	lo := pos - max/3
	if lo < 0 {
		lo = 0
	}
	// Snapping lo forward and hi backward keeps hi-lo <= max while
	// landing both bounds on rune starts.
	lo = snapRuneUp(text, lo)
	hi := lo + max
	if hi >= len(text) {
		hi = len(text)
		lo = snapRuneUp(text, hi-max)
	} else {
		hi = SnapRuneDown(text, hi)
	}
	s := text[lo:hi]
	if lo > 0 {
		s = "…" + s
	}
	if hi < len(text) {
		s += "…"
	}
	return s
}

// SnapRuneDown returns the largest index j <= i that is a UTF-8 rune
// boundary of s; i is clamped to [0, len(s)]. On invalid UTF-8 it gives
// up after utf8.UTFMax-1 continuation bytes and returns the position
// reached (slicing invalid text cannot make it more invalid).
func SnapRuneDown(s string, i int) int {
	if i >= len(s) {
		return len(s)
	}
	if i < 0 {
		return 0
	}
	for k := 0; k < utf8.UTFMax-1 && i > 0; k++ {
		if utf8.RuneStart(s[i]) {
			return i
		}
		i--
	}
	return i
}

// snapRuneUp returns the smallest index j >= i that is a rune boundary
// of s; i is clamped to [0, len(s)].
func snapRuneUp(s string, i int) int {
	if i <= 0 {
		return 0
	}
	for k := 0; k < utf8.UTFMax-1 && i < len(s); k++ {
		if utf8.RuneStart(s[i]) {
			return i
		}
		i++
	}
	if i > len(s) {
		return len(s)
	}
	return i
}

func nextWord(s string, from int) (int, int) {
	i := from
	for i < len(s) && !isAlnumByte(s[i]) {
		i++
	}
	if i >= len(s) {
		return -1, -1
	}
	j := i
	for j < len(s) && isAlnumByte(s[j]) {
		j++
	}
	return i, j
}

func isAlnumByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}
