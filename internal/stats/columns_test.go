package stats

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"testing"

	"flexpath/internal/inex"
	"flexpath/internal/xmark"
	"flexpath/internal/xmltree"
)

type tagPair struct{ a, b xmltree.TagID }

// mapStats is the heap form the columns replaced: four maps keyed by tag
// pair, filled node by node the way the old Collect filled them. It is
// the oracle the column lookups (and the tag-at-a-time Collect) are held
// to.
type mapStats struct {
	tagCount                                []int
	pcCount, adCount, pcParents, adAncestor map[tagPair]int
}

func newMapStats(doc *xmltree.Document) *mapStats {
	s := &mapStats{
		tagCount: make([]int, doc.NumTags()),
		pcCount:  map[tagPair]int{}, adCount: map[tagPair]int{},
		pcParents: map[tagPair]int{}, adAncestor: map[tagPair]int{},
	}
	for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
		t := doc.Tag(n)
		s.tagCount[t]++
		if p := doc.Parent(n); p != xmltree.InvalidNode {
			s.pcCount[tagPair{doc.Tag(p), t}]++
		}
		seen := map[xmltree.TagID]bool{}
		for c := n + 1; c <= doc.End(n); c = doc.End(c) + 1 {
			if ct := doc.Tag(c); !seen[ct] {
				seen[ct] = true
				s.pcParents[tagPair{t, ct}]++
			}
		}
		seen = map[xmltree.TagID]bool{}
		for m := n + 1; m <= doc.End(n); m++ {
			s.adCount[tagPair{t, doc.Tag(m)}]++
			if dt := doc.Tag(m); !seen[dt] {
				seen[dt] = true
				s.adAncestor[tagPair{t, dt}]++
			}
		}
	}
	return s
}

// writeBinary is the FXS1 encoder the library no longer has. The tests
// keep it so the legacy reader is held to arbitrary statistics, not only
// to the golden fixture.
func writeBinary(s *Stats) []byte {
	b := append([]byte(nil), statsMagic[:]...)
	uvarint := func(v uint64) { b = binary.AppendUvarint(b, v) }
	uvarint(uint64(len(s.tagCount)))
	for _, c := range s.tagCount {
		uvarint(c)
	}
	for _, p := range s.pairLists() {
		uvarint(uint64(len(p.a)))
		for i := range p.a {
			uvarint(uint64(p.a[i]))
			uvarint(uint64(p.b[i]))
			uvarint(p.v[i])
		}
	}
	return b
}

// goldenSections splits the checked-in FXP2 fixture, bytes written by a
// release that still had the encoders, into its tree, statistics and
// index sections.
func goldenSections(t *testing.T) (secs [3][]byte) {
	t.Helper()
	data, err := os.ReadFile("../../testdata/golden_indexed.fxp2")
	if err != nil {
		t.Fatal(err)
	}
	rest := data[4:]
	for i := range secs {
		n, w := binary.Uvarint(rest)
		secs[i], rest = rest[w:w+int(n)], rest[w+int(n):]
	}
	return secs
}

// TestReadStatsBinaryRejectsTruncation cuts the golden statistics
// section at every offset: no prefix may load.
func TestReadStatsBinaryRejectsTruncation(t *testing.T) {
	secs := goldenSections(t)
	doc, err := xmltree.ReadBinary(bytes.NewReader(secs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStatsBinary(doc, bytes.NewReader(secs[1])); err != nil {
		t.Fatalf("golden statistics section: %v", err)
	}
	for cut := 0; cut < len(secs[1]); cut++ {
		if _, err := ReadStatsBinary(doc, bytes.NewReader(secs[1][:cut])); err == nil {
			t.Errorf("accepted truncation at %d", cut)
		}
	}
}

// statsReloads returns s with its FXP2 and its FXP3 reload.
func statsReloads(t *testing.T, s *Stats) map[string]*Stats {
	t.Helper()
	fxp2, err := ReadStatsBinary(s.doc, bytes.NewReader(writeBinary(s)))
	if err != nil {
		t.Fatalf("FXP2 reload: %v", err)
	}
	fxp3, err := DecodeColumnar(s.doc, s.EncodeColumnar())
	if err != nil {
		t.Fatalf("FXP3 reload: %v", err)
	}
	if err := fxp3.Validate(); err != nil {
		t.Fatalf("FXP3 reload: %v", err)
	}
	return map[string]*Stats{"built": s, "fxp2": fxp2, "fxp3": fxp3}
}

func TestColumnsMatchMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	single, err := xmltree.ParseString(`<a/>`) // no pairs at all
	if err != nil {
		t.Fatal(err)
	}
	docs := []*xmltree.Document{single}
	for len(docs) < 200 {
		var d *xmltree.Document
		if r.Intn(2) == 0 {
			d, err = xmark.Build(xmark.Config{TargetBytes: int64(4+r.Intn(28)) << 10, Seed: r.Int63()})
		} else {
			d, err = inex.Build(inex.Config{Articles: 1 + r.Intn(4), Seed: r.Int63()})
		}
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	for di, doc := range docs {
		want := newMapStats(doc)
		for form, s := range statsReloads(t, Collect(doc)) {
			for a := xmltree.TagID(0); int(a) < doc.NumTags(); a++ {
				t1 := doc.TagNameOf(a)
				if got := s.Count(t1); got != want.tagCount[a] {
					t.Fatalf("doc %d %s: Count(%s) = %d, want %d", di, form, t1, got, want.tagCount[a])
				}
				for b := xmltree.TagID(0); int(b) < doc.NumTags(); b++ {
					t2, k := doc.TagNameOf(b), tagPair{a, b}
					got := [4]int{s.PC(t1, t2), s.AD(t1, t2), s.PCParents(t1, t2), s.ADAncestors(t1, t2)}
					if w := [4]int{want.pcCount[k], want.adCount[k], want.pcParents[k], want.adAncestor[k]}; got != w {
						t.Fatalf("doc %d %s: (%s,%s) pc/ad/pcParents/adAncestors = %v, want %v", di, form, t1, t2, got, w)
					}
				}
			}
			if s.Count("nosuch") != 0 || s.PC("nosuch", "item") != 0 || s.ADAncestors("item", "nosuch") != 0 {
				t.Fatalf("doc %d %s: counted a tag the document lacks", di, form)
			}
		}
	}
}

// Validate rejects pairs a binary search would not find; the FXP2 reader
// runs it on the columns it fills.
func TestValidateRejectsBrokenColumns(t *testing.T) {
	doc, err := xmltree.ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	breaks := map[string]func(s *Stats){
		"pairs repeating":      func(s *Stats) { s.ad.a[1], s.ad.b[1] = s.ad.a[0], s.ad.b[0] },
		"pairs out of order":   func(s *Stats) { s.pc.a[0] = s.pc.a[len(s.pc.a)-1] },
		"second tag unordered": func(s *Stats) { s.adAncestors.b[0] = xmltree.TagID(doc.NumTags() - 1) },
		"tag out of range":     func(s *Stats) { s.pcParents.b[len(s.pcParents.b)-1] = xmltree.TagID(doc.NumTags()) },
	}
	for name, edit := range breaks {
		s, err := DecodeColumnar(doc, bytes.Clone(Collect(doc).EncodeColumnar()))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("clean statistics: %v", err)
		}
		edit(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := ReadStatsBinary(doc, bytes.NewReader(writeBinary(s))); err == nil {
			t.Errorf("%s: loaded from FXP2", name)
		}
	}
}
