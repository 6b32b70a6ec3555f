// Package ir is the full-text search engine used by FleXPath to evaluate
// contains predicates. It provides a tokenizer with stopword removal and
// light stemming, a full-text expression language (conjunction,
// disjunction, negation, phrases, proximity), and an element-level
// inverted index over an xmltree.Document.
//
// The FleXPath paper treats the IR engine as a black box that, given a
// full-text expression, returns a ranked list of (node, score) pairs for
// the most specific elements satisfying the expression, with scores
// normalized to [0, 1] (see §5.1 of the paper, and XRANK / nearest-concept
// queries [20, 29] for the most-specific-element semantics). This package
// satisfies exactly that contract.
package ir

import "strings"

// stopwords is a small English stopword list. Stopwords are dropped at
// indexing and at query parsing.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "has": true,
	"he": true, "in": true, "is": true, "it": true, "its": true, "of": true,
	"on": true, "or": true, "that": true, "the": true, "to": true,
	"was": true, "were": true, "will": true, "with": true,
}

// Stem applies a light suffix-stripping stemmer. It is intentionally
// simpler than Porter's algorithm but handles the inflections that matter
// for matching query keywords against generated text (e.g. "streaming" →
// "stream", "algorithms" → "algorithm"). Stripping runs to a fixpoint so
// that stemming is idempotent — Stem(Stem(w)) == Stem(w) — which keeps
// canonical expression forms stable under re-parsing.
func Stem(w string) string {
	for {
		next := stemOnce(w)
		if next == w {
			return w
		}
		w = next
	}
}

func stemOnce(w string) string {
	n := len(w)
	switch {
	case n > 5 && strings.HasSuffix(w, "ing"):
		return w[:n-3]
	case n > 4 && strings.HasSuffix(w, "ies"):
		return w[:n-3] + "y"
	case n > 5 && strings.HasSuffix(w, "sses"):
		return w[:n-2]
	case n > 4 && strings.HasSuffix(w, "ed"):
		return w[:n-2]
	case n > 4 && strings.HasSuffix(w, "es") && !strings.HasSuffix(w, "ses"):
		return w[:n-2]
	case n > 3 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss"):
		return w[:n-1]
	}
	return w
}

// Tokenize splits s into normalized index terms: lowercase, alphanumeric
// runs only, stopwords removed, stemmed.
func Tokenize(s string) []string { return appendTokens(nil, s) }

// appendTokens appends s's index terms to out.
func appendTokens(out []string, s string) []string {
	appendToken := func(tok string) {
		if tok == "" || stopwords[tok] {
			return
		}
		out = append(out, Stem(tok))
	}
	start := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		isAlnum := c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c >= 'A' && c <= 'Z'
		if isAlnum {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			appendToken(strings.ToLower(s[start:i]))
			start = -1
		}
	}
	if start >= 0 {
		appendToken(strings.ToLower(s[start:]))
	}
	return out
}
