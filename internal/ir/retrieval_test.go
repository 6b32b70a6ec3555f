package ir

import (
	"strings"
	"testing"
	"unicode/utf8"
)

func TestSnippet(t *testing.T) {
	doc := mustDoc(t, `<a><b>`+strings.Repeat("filler words here ", 30)+
		`the golden treasure appears once `+strings.Repeat("and more filler ", 30)+`</b></a>`)
	ix := NewIndex(doc)
	e := MustParseExpr("golden")
	s := ix.Snippet(0, e, 80)
	if !strings.Contains(s, "golden") {
		t.Errorf("snippet does not contain the match: %q", s)
	}
	if len(s) > 90 {
		t.Errorf("snippet too long: %d bytes", len(s))
	}
	// Short text returned whole.
	doc2 := mustDoc(t, `<a>tiny</a>`)
	ix2 := NewIndex(doc2)
	if got := ix2.Snippet(0, e, 80); got != "tiny" {
		t.Errorf("short snippet = %q", got)
	}
	// Missing term: prefix fallback.
	s = ix.Snippet(0, MustParseExpr("absentterm"), 40)
	if !strings.HasPrefix(s, "filler") || !strings.HasSuffix(s, "…") {
		t.Errorf("fallback snippet = %q", s)
	}
}

// TestSnippetRuneBoundaries is the regression test for snippet bounds
// landing inside a multi-byte rune: sweeping max across a multi-byte
// text hits every byte alignment, and a split rune would make the
// result invalid UTF-8 (rendered as U+FFFD after JSON encoding).
func TestSnippetRuneBoundaries(t *testing.T) {
	pad := strings.Repeat("héllo wörld déjà ", 20)
	doc := mustDoc(t, "<a>"+pad+"golden träsure "+pad+"</a>")
	ix := NewIndex(doc)
	golden := MustParseExpr("golden")
	absent := MustParseExpr("absentterm")
	for max := 10; max <= 80; max++ {
		centered := ix.Snippet(0, golden, max)
		if !utf8.ValidString(centered) {
			t.Fatalf("max=%d: centered snippet is invalid UTF-8: %q", max, centered)
		}
		prefix := ix.Snippet(0, absent, max)
		if !utf8.ValidString(prefix) {
			t.Fatalf("max=%d: prefix snippet is invalid UTF-8: %q", max, prefix)
		}
	}
}

func TestSnapRuneDown(t *testing.T) {
	s := "aé€b" // rune starts at 0, 1, 3, 6
	for i, want := range []int{0, 1, 1, 3, 3, 3, 6} {
		if got := SnapRuneDown(s, i); got != want {
			t.Errorf("SnapRuneDown(%d) = %d, want %d", i, got, want)
		}
	}
	if got := SnapRuneDown(s, 99); got != len(s) {
		t.Errorf("SnapRuneDown beyond end = %d", got)
	}
	if got := SnapRuneDown(s, -1); got != 0 {
		t.Errorf("SnapRuneDown(-1) = %d", got)
	}
}

func TestSnippetStemmedMatch(t *testing.T) {
	doc := mustDoc(t, `<a>`+strings.Repeat("pad ", 60)+`systems were Streaming rapidly onward `+strings.Repeat("pad ", 60)+`</a>`)
	ix := NewIndex(doc)
	s := ix.Snippet(0, MustParseExpr("stream"), 60)
	if !strings.Contains(s, "Streaming") {
		t.Errorf("stemmed snippet missed inflected form: %q", s)
	}
}
