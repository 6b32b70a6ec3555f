package ir

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"flexpath/internal/inex"
	"flexpath/internal/xmark"
	"flexpath/internal/xmltree"
)

// mapIndex is the heap form the columns replaced — term-keyed posting
// and df maps and a node-keyed length map, filled the way the old
// NewIndex filled them. It is the oracle the column lookups are held to.
type mapIndex struct {
	post      map[string][]posting
	df        map[string]int
	nodeLen   map[xmltree.NodeID]int32
	avgLen    float64
	textNodes int
}

func newMapIndex(doc *xmltree.Document) *mapIndex {
	m := &mapIndex{post: map[string][]posting{}, df: map[string]int{}, nodeLen: map[xmltree.NodeID]int32{}}
	pos, total := int32(0), 0
	lastOwner := map[string]xmltree.NodeID{}
	for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
		text := doc.Text(n)
		if text == "" {
			continue
		}
		m.textNodes++
		toks := Tokenize(text)
		m.nodeLen[n] = int32(len(toks))
		total += len(toks)
		for _, tok := range toks {
			m.post[tok] = append(m.post[tok], posting{node: n, pos: pos})
			if last, ok := lastOwner[tok]; !ok || last != n {
				m.df[tok]++
				lastOwner[tok] = n
			}
			pos++
		}
	}
	if m.textNodes > 0 {
		m.avgLen = float64(total) / float64(m.textNodes)
	}
	return m
}

// postings is lookup for the tests that only read occurrences.
func (ix *Index) postings(word string) []posting {
	posts, _, _ := ix.lookup(word)
	return posts
}

// indexReloads returns ix with its FXP3 reload.
func indexReloads(t *testing.T, ix *Index) map[string]*Index {
	t.Helper()
	fxp3, err := DecodeColumnar(ix.doc, ix.EncodeColumnar())
	if err != nil {
		t.Fatalf("FXP3 reload: %v", err)
	}
	if err := fxp3.Validate(); err != nil {
		t.Fatalf("FXP3 reload: %v", err)
	}
	return map[string]*Index{"built": ix, "fxp3": fxp3}
}

func randomCorpusDoc(t *testing.T, r *rand.Rand) *xmltree.Document {
	t.Helper()
	var d *xmltree.Document
	var err error
	if r.Intn(2) == 0 {
		d, err = xmark.Build(xmark.Config{TargetBytes: int64(4+r.Intn(28)) << 10, Seed: r.Int63()})
	} else {
		d, err = inex.Build(inex.Config{Articles: 1 + r.Intn(4), Seed: r.Int63()})
	}
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestColumnsMatchMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	docs := []*xmltree.Document{
		mustDoc(t, `<a>solo</a>`),
		mustDoc(t, `<a><b/><c x="1"/></a>`), // no text at all: an empty index
		mustDoc(t, `<a>the of and<b>gold gold gold</b>tail gold<c>!!!</c></a>`),
	}
	for len(docs) < 200 {
		docs = append(docs, randomCorpusDoc(t, r))
	}
	for di, doc := range docs {
		want := newMapIndex(doc)
		for _, scoring := range []Scoring{ScoringTFIDF, ScoringBM25} {
			for form, ix := range indexReloads(t, NewIndexOptions(doc, IndexOptions{Scoring: scoring})) {
				if ix.scoring != scoring || ix.textNodes != want.textNodes || ix.avgLen != want.avgLen {
					t.Fatalf("doc %d %s: header (%v,%d,%v), want (%v,%d,%v)", di, form,
						ix.scoring, ix.textNodes, ix.avgLen, scoring, want.textNodes, want.avgLen)
				}
				if len(ix.df) != len(want.post) {
					t.Fatalf("doc %d %s: %d terms, want %d", di, form, len(ix.df), len(want.post))
				}
				for term, posts := range want.post {
					if got := ix.postings(term); !reflect.DeepEqual(got, posts) {
						t.Fatalf("doc %d %s: postings(%q) = %v, want %v", di, form, term, got, posts)
					}
					if i := ix.term(term); i < 0 || int(ix.df[i]) != want.df[term] {
						t.Fatalf("doc %d %s: df(%q) wrong", di, form, term)
					}
					// A neighbour of every term that is not a term.
					for _, absent := range []string{term + "\x00", term[:len(term)-1] + "\x01", strings.ToUpper(term)} {
						if _, ok := want.post[absent]; !ok && (ix.term(absent) >= 0 || ix.postings(absent) != nil) {
							t.Fatalf("doc %d %s: found absent term %q", di, form, absent)
						}
					}
				}
				for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
					if got := ix.nodeLen(n); got != want.nodeLen[n] {
						t.Fatalf("doc %d %s: nodeLen(%d) = %d, want %d", di, form, n, got, want.nodeLen[n])
					}
				}
			}
		}
	}
}

// Validate rejects each column value a lookup would otherwise trust,
// including the orderings only binary search needs and the document
// frequency idf divides by.
func TestValidateRejectsBrokenColumns(t *testing.T) {
	multi := func(ix *Index) (lo uint64) { // a term with postings in two nodes
		for i := range ix.df {
			if ix.df[i] > 1 {
				return ix.postOff[i]
			}
		}
		t.Fatal("no term occurs in two nodes")
		return 0
	}
	breaks := map[string]func(ix *Index){
		"df of -1":                  func(ix *Index) { ix.df[0] = -1 },
		"df off by one":             func(ix *Index) { ix.df[len(ix.df)-1]++ },
		"negative node length":      func(ix *Index) { ix.nlLen[1] = -3 },
		"node lengths out of order": func(ix *Index) { ix.nlNode[1] = ix.nlNode[0] },
		"node length node out of range": func(ix *Index) {
			ix.nlNode[len(ix.nlNode)-1] = xmltree.NodeID(ix.doc.Len())
		},
		"terms out of order": func(ix *Index) { ix.termBlob[ix.termOff[len(ix.df)-1]] = 0 },
		"terms equal": func(ix *Index) {
			ix.termOff[1], ix.termOff[2] = ix.termOff[0], ix.termOff[0] // both ""
		},
		"term offsets beyond the blob": func(ix *Index) { ix.termOff[len(ix.termOff)-1]++ },
		"posting offsets beyond":       func(ix *Index) { ix.postOff[len(ix.postOff)-1]++ },
		"posting node out of range":    func(ix *Index) { ix.posts[len(ix.posts)-1].node = xmltree.NodeID(ix.doc.Len()) },
		"posting node of -1": func(ix *Index) { // the term's first node, df lowered to match
			lo := multi(ix)
			first := ix.posts[lo].node
			for j := lo; ix.posts[j].node == first; j++ {
				ix.posts[j].node = -1
			}
			for i := range ix.df {
				if ix.postOff[i] == lo {
					ix.df[i]--
				}
			}
		},
		"posting nodes decreasing": func(ix *Index) {
			lo := multi(ix)
			for j := lo; ; j++ {
				if ix.posts[j].node != ix.posts[j+1].node {
					ix.posts[j].node, ix.posts[j+1].node = ix.posts[j+1].node, ix.posts[j].node
					return
				}
			}
		},
		"posting positions not increasing": func(ix *Index) {
			lo := multi(ix)
			ix.posts[lo+1].pos = ix.posts[lo].pos
		},
	}
	doc := mustDoc(t, articleXML)
	for name, edit := range breaks {
		ix, err := DecodeColumnar(doc, bytes.Clone(NewIndex(doc).EncodeColumnar()))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("clean index: %v", err)
		}
		edit(ix)
		if err := ix.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodeColumnarRejectsTruncation cuts an index payload at every
// offset: no prefix may load.
func TestDecodeColumnarRejectsTruncation(t *testing.T) {
	doc := mustDoc(t, articleXML)
	data := NewIndex(doc).EncodeColumnar()
	for cut := 0; cut < len(data); cut++ {
		if ix, err := DecodeColumnar(doc, data[:cut]); err == nil && ix.Validate() == nil {
			t.Errorf("accepted truncation at %d", cut)
		}
	}
}
