package flexpath

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flexpath/internal/fxp3"
	"flexpath/internal/inex"
	"flexpath/internal/xmark"
	"flexpath/internal/xmltree"
)

// Tests of the one representation: a document is its FXP3 columns,
// whether Parse or a mapping supplied them. The
// per-package suites (internal/{xmltree,ir,stats}/columns_test.go) hold
// every accessor to the per-node and map forms the columns replaced;
// these check the assembled Document and the files.

// fxp3Sections splits a snapshot into mutable copies of its payloads.
func fxp3Sections(t *testing.T, data []byte) []fxp3.Section {
	t.Helper()
	f, err := fxp3.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	var out []fxp3.Section
	for _, id := range []fxp3.SectionID{fxp3.SectionMeta, fxp3.SectionTree, fxp3.SectionStats, fxp3.SectionIndex} {
		p, err := f.Section(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fxp3.Section{ID: id, Data: bytes.Clone(p)})
	}
	return out
}

// fxp3Columns returns the byte columns of a section payload in stored
// order, aliasing it. scalars[i] is the number of u64 scalars that
// precede column i.
func fxp3Columns(payload []byte, scalars ...int) [][]byte {
	dec := fxp3.NewDec(payload)
	var cols [][]byte
	for _, n := range scalars {
		for ; n > 0; n-- {
			dec.U64()
		}
		cols = append(cols, dec.Col())
	}
	return cols
}

// The columns of the three data sections, by name, in stored order.
var (
	treeNames = []string{"tagOff", "tagBlob", "nodeTag", "end", "level", "parent", "textOff", "textBlob",
		"attrCnt", "attrOff", "attrBlob", "byTagOff", "byTagIDs"}
	indexNames = []string{"nlNode", "nlLen", "termOff", "termBlob", "df", "postOff", "posts"}
	statsNames = []string{"tagCount", "pc.a", "pc.b", "pc.v", "ad.a", "ad.b", "ad.v",
		"pcParents.a", "pcParents.b", "pcParents.v", "adAncestors.a", "adAncestors.b", "adAncestors.v"}
)

func treeColumns(p []byte) map[string][]byte {
	return nameColumns(treeNames, fxp3Columns(p, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
}

func indexColumns(p []byte) map[string][]byte {
	return nameColumns(indexNames, fxp3Columns(p, 4, 0, 1, 0, 0, 0, 0))
}

func statsColumns(p []byte) map[string][]byte {
	return nameColumns(statsNames, fxp3Columns(p, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0))
}

func nameColumns(names []string, cols [][]byte) map[string][]byte {
	m := map[string][]byte{}
	for i, n := range names {
		m[n] = cols[i]
	}
	return m
}

// fxp3Diff names where snapshots a and b first differ: the section and,
// in a data section, the first column in stored order. It returns ""
// when they are the same bytes.
func fxp3Diff(t *testing.T, a, b []byte) string {
	t.Helper()
	if bytes.Equal(a, b) {
		return ""
	}
	layouts := map[fxp3.SectionID]struct {
		name  string
		cols  []string
		split func([]byte) map[string][]byte
	}{
		fxp3.SectionTree:  {"tree", treeNames, treeColumns},
		fxp3.SectionStats: {"stats", statsNames, statsColumns},
		fxp3.SectionIndex: {"index", indexNames, indexColumns},
	}
	sb := fxp3Sections(t, b)
	for i, s := range fxp3Sections(t, a) {
		if bytes.Equal(s.Data, sb[i].Data) {
			continue
		}
		l, ok := layouts[s.ID]
		if !ok {
			return "the meta section"
		}
		ca, cb := l.split(s.Data), l.split(sb[i].Data)
		for _, c := range l.cols {
			if !bytes.Equal(ca[c], cb[c]) {
				return fmt.Sprintf("the %s section's column %s", l.name, c)
			}
		}
		return fmt.Sprintf("the %s section's scalars", l.name)
	}
	return "the file header"
}

// sameMembers fails unless got holds want's member names in want's order
// and every member saves to the same FXP3 bytes as want's: a storage
// form holds the same documents, so it ranks like them (the goldens rank
// each constructor path once). Reading a cold member faults it in.
func sameMembers(t *testing.T, got, want *Collection) {
	t.Helper()
	names := want.Names()
	if g := got.Names(); !reflect.DeepEqual(g, names) {
		t.Fatalf("members %v, want %v", g, names)
	}
	for _, name := range names {
		g, gok := got.Document(name)
		w, wok := want.Document(name)
		if !gok || !wok {
			t.Fatalf("member %s does not load", name)
		}
		if diff := fxp3Diff(t, fxp3Bytes(t, g), fxp3Bytes(t, w)); diff != "" {
			t.Fatalf("member %s: %s differs", name, diff)
		}
	}
}

func i32(col []byte, i int) int32       { return int32(binary.LittleEndian.Uint32(col[4*i:])) }
func setI32(col []byte, i int, v int32) { binary.LittleEndian.PutUint32(col[4*i:], uint32(v)) }
func u64(col []byte, i int) uint64      { return binary.LittleEndian.Uint64(col[8*i:]) }

// repeatedTerm returns the posting range of a term that occurs in at
// least two nodes.
func repeatedTerm(t *testing.T, ix map[string][]byte) (lo, hi int) {
	t.Helper()
	for i := 0; i < len(ix["df"])/4; i++ {
		if i32(ix["df"], i) > 1 {
			return int(u64(ix["postOff"], i)), int(u64(ix["postOff"], i+1))
		}
	}
	t.Fatal("no term occurs in two nodes")
	return 0, 0
}

// TestFXP3RejectsDisorderedColumns re-assembles a valid snapshot with
// one column value changed and every checksum recomputed, once per check
// the one-off validation pass makes that a lookup map never needed: a
// file that passes its checksums but breaks an ordering (or states a
// document frequency its postings do not have) must be
// ErrCorruptSnapshot, not a silently different ranking. Every case loads
// at the commit before the checks existed.
func TestFXP3RejectsDisorderedColumns(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	clean := fxp3Bytes(t, doc)
	const tree, stats, index = 1, 2, 3 // positions in fxp3Sections
	cases := []struct {
		name    string
		section int
		edit    func(p []byte)
	}{
		{"df of -1", index, func(p []byte) { setI32(indexColumns(p)["df"], 0, -1) }},
		{"df off by one", index, func(p []byte) {
			df := indexColumns(p)["df"]
			setI32(df, 1, i32(df, 1)+1)
		}},
		{"negative node length", index, func(p []byte) { setI32(indexColumns(p)["nlLen"], 0, -1) }},
		{"node lengths out of order", index, func(p []byte) {
			nl := indexColumns(p)["nlNode"]
			setI32(nl, 1, i32(nl, 0))
		}},
		{"term dictionary out of order", index, func(p []byte) {
			ix := indexColumns(p)
			last := len(ix["df"])/4 - 1
			ix["termBlob"][u64(ix["termOff"], last)] = 0
		}},
		{"posting node of -1", index, func(p []byte) { // the term's first node, df lowered to match
			ix := indexColumns(p)
			lo, _ := repeatedTerm(t, ix)
			first := i32(ix["posts"], 2*lo)
			for j := lo; i32(ix["posts"], 2*j) == first; j++ {
				setI32(ix["posts"], 2*j, -1)
			}
			for i := 0; ; i++ {
				if int(u64(ix["postOff"], i)) == lo && i32(ix["df"], i) > 1 {
					setI32(ix["df"], i, i32(ix["df"], i)-1)
					return
				}
			}
		}},
		{"posting nodes decreasing", index, func(p []byte) {
			ix := indexColumns(p)
			lo, hi := repeatedTerm(t, ix)
			for j := lo; j+1 < hi; j++ {
				if a, b := i32(ix["posts"], 2*j), i32(ix["posts"], 2*j+2); a != b {
					setI32(ix["posts"], 2*j, b)
					setI32(ix["posts"], 2*j+2, a)
					return
				}
			}
		}},
		{"posting positions repeating", index, func(p []byte) {
			ix := indexColumns(p)
			lo, _ := repeatedTerm(t, ix)
			setI32(ix["posts"], 2*lo+3, i32(ix["posts"], 2*lo+1))
		}},
		{"statistics pairs repeating", stats, func(p []byte) {
			st := statsColumns(p)
			setI32(st["ad.a"], 1, i32(st["ad.a"], 0))
			setI32(st["ad.b"], 1, i32(st["ad.b"], 0))
		}},
		{"statistics pairs out of order", stats, func(p []byte) {
			st := statsColumns(p)
			setI32(st["pcParents.a"], 0, i32(st["pcParents.a"], len(st["pcParents.a"])/4-1))
		}},
		{"tag list out of document order", tree, func(p []byte) {
			tr := treeColumns(p)
			for tag := 0; ; tag++ {
				if lo, hi := int(u64(tr["byTagOff"], tag)), int(u64(tr["byTagOff"], tag+1)); hi-lo > 1 {
					a, b := i32(tr["byTagIDs"], lo), i32(tr["byTagIDs"], lo+1)
					setI32(tr["byTagIDs"], lo, b)
					setI32(tr["byTagIDs"], lo+1, a)
					return
				}
			}
		}},
		{"level off the parent's", tree, func(p []byte) { setI32(treeColumns(p)["level"], 3, 9) }},
	}
	for _, c := range cases {
		secs := fxp3Sections(t, clean)
		before := bytes.Clone(secs[c.section].Data)
		c.edit(secs[c.section].Data)
		if bytes.Equal(before, secs[c.section].Data) {
			t.Fatalf("%s: the edit changed nothing", c.name)
		}
		var buf bytes.Buffer
		if err := fxp3.Write(&buf, secs); err != nil {
			t.Fatal(err)
		}
		if _, err := loadDocumentBytes(buf.Bytes()); err == nil {
			t.Errorf("%s: loaded", c.name)
		} else if !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", c.name, err)
		}
		// A cold member refuses every fault the same way, not only the
		// one that ran the validation: later faults return the error the
		// one decode kept instead of decoding again.
		path := filepath.Join(t.TempDir(), "bad.fxp3")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		coll := NewCollection()
		if err := coll.AddSnapshotFile("bad", path); err != nil {
			t.Fatal(err)
		}
		members := coll.members()
		for i := 0; i < 2; i++ {
			_, err := coll.Search(MustParseQuery(paperQ1), SearchOptions{K: 3})
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Errorf("%s: search %d of a cold member: err = %v, want ErrCorruptSnapshot", c.name, i, err)
			}
			if kept := members[0].cold.err; kept == nil || !errors.Is(err, kept) {
				t.Errorf("%s: search %d: err = %v, want the kept decode error %v", c.name, i, err, kept)
			}
		}
		coll.Close() //nolint:errcheck
	}
}

// TestThreeFormsOneRepresentation: a parsed document and its FXP3 reload
// hold the same columns. The FXP3 encoder writes the columns straight
// out, so "the same columns" is "the same bytes when saved again", for
// every column of the tree, the statistics and the index at once.
func TestThreeFormsOneRepresentation(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var trees []*xmltree.Document
	for _, src := range []string{
		`<a x="1" y="">t1<b>inner</b>t2<c/>t3<d><e>deep</e>late</d> tail</a>`, // mixed content
		`<a><b></b><c>   </c><d/></a>`,                                        // no text anywhere
		`<only/>`,
		articlesXML,
	} {
		tr, err := xmltree.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	for len(trees) < 60 {
		var tr *xmltree.Document
		var err error
		if r.Intn(2) == 0 {
			tr, err = xmark.Build(xmark.Config{TargetBytes: int64(8+r.Intn(56)) << 10, Seed: r.Int63()})
		} else {
			tr, err = inex.Build(inex.Config{Articles: 1 + r.Intn(5), Seed: r.Int63()})
		}
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	for i, tr := range trees {
		want := fxp3Bytes(t, newDocument(tr, DocumentOptions{BM25: i%2 == 1}))
		from3, err := loadDocumentBytes(want)
		if err != nil {
			t.Fatalf("tree %d: FXP3 reload: %v", i, err)
		}
		if diff := fxp3Diff(t, fxp3Bytes(t, from3), want); diff != "" {
			t.Fatalf("tree %d: the FXP3 reload saves differently: %s differs", i, diff)
		}
	}
}
