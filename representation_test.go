package flexpath

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"flexpath/internal/fxp3"
	"flexpath/internal/inex"
	"flexpath/internal/xmark"
	"flexpath/internal/xmltree"
)

// Tests of the one representation: a document is its FXP3 columns,
// whether Parse, the FXP2 reader or a mapping supplied them. The
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

// The columns of the three data sections, by name.
func treeColumns(p []byte) map[string][]byte {
	names := []string{"tagOff", "tagBlob", "nodeTag", "end", "level", "parent", "textOff", "textBlob",
		"attrCnt", "attrOff", "attrBlob", "byTagOff", "byTagIDs"}
	return nameColumns(names, fxp3Columns(p, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
}

func indexColumns(p []byte) map[string][]byte {
	names := []string{"nlNode", "nlLen", "termOff", "termBlob", "df", "postOff", "posts"}
	return nameColumns(names, fxp3Columns(p, 4, 0, 1, 0, 0, 0, 0))
}

func statsColumns(p []byte) map[string][]byte {
	names := []string{"tagCount"}
	scalars := []int{1}
	for _, m := range []string{"pc", "ad", "pcParents", "adAncestors"} {
		names = append(names, m+".a", m+".b", m+".v")
		scalars = append(scalars, 1, 0, 0)
	}
	return nameColumns(names, fxp3Columns(p, scalars...))
}

func nameColumns(names []string, cols [][]byte) map[string][]byte {
	m := map[string][]byte{}
	for i, n := range names {
		m[n] = cols[i]
	}
	return m
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
		if _, err := LoadFXP3Snapshot(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("%s: loaded", c.name)
		} else if !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", c.name, err)
		}
		// A cold member refuses every fault the same way, not only the
		// one that ran the validation.
		path := filepath.Join(t.TempDir(), "bad.fxp3")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		coll := NewCollection()
		if err := coll.AddSnapshotFile("bad", path); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := coll.Search(MustParseQuery(paperQ1), SearchOptions{K: 3}); !errors.Is(err, ErrCorruptSnapshot) {
				t.Errorf("%s: search %d of a cold member: err = %v, want ErrCorruptSnapshot", c.name, i, err)
			}
		}
		coll.Close() //nolint:errcheck
	}
}

// fxp2Sections splits an FXP2 container into its three sections;
// fxp2Join is its inverse.
func fxp2Sections(t *testing.T, data []byte) [][]byte {
	t.Helper()
	rest := data[4:]
	var secs [][]byte
	for i := 0; i < 3; i++ {
		n, w := binary.Uvarint(rest)
		if w <= 0 || uint64(len(rest)-w) < n {
			t.Fatal("malformed FXP2 fixture")
		}
		secs = append(secs, bytes.Clone(rest[w:w+int(n)]))
		rest = rest[w+int(n):]
	}
	return secs
}

func fxp2Join(secs [][]byte) []byte {
	out := append([]byte(nil), indexedMagic[:]...)
	for _, s := range secs {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return out
}

// TestFXP2RejectsBadFrequencyAndLength crafts, in the index section of
// the FXP2 fixture, the two values neither snapshot reader used to
// check: a document frequency the postings do not have (idf divides by
// it) and a node length that is negative once narrowed to the column
// width.
func TestFXP2RejectsBadFrequencyAndLength(t *testing.T) {
	secs := fxp2Sections(t, goldenFXP2(t))
	// Index section: magic(4) scoring(1) textNodes avgLen(8) count
	// {nodeDelta len}... termCount {term df postingCount postings}...
	ix := secs[2]
	at := 4 + 1
	uvarint := func() uint64 {
		v, w := binary.Uvarint(ix[at:])
		if w <= 0 {
			t.Fatal("malformed FXP2 fixture")
		}
		at += w
		return v
	}
	uvarint() // textNodes
	at += 8   // avgLen
	lengths := uvarint()
	uvarint() // the first text node
	firstLen := at
	uvarint()
	for i := uint64(1); i < lengths; i++ {
		uvarint()
		uvarint()
	}
	uvarint()            // term count
	at += int(uvarint()) // the first term
	dfAt := at
	if df := uvarint(); df == 0 || df >= 0x7f {
		t.Fatalf("fixture layout moved: first df reads %d", df)
	}
	withDF := bytes.Clone(ix)
	withDF[dfAt]++
	_, w := binary.Uvarint(ix[firstLen:])
	withLen := append(append(bytes.Clone(ix[:firstLen]), binary.AppendUvarint(nil, 1<<31)...), ix[firstLen+w:]...)
	for name, index := range map[string][]byte{"df the postings do not have": withDF, "negative node length": withLen} {
		data := fxp2Join([][]byte{secs[0], secs[1], index})
		if _, err := loadIndexedSnapshot(data); err == nil {
			t.Errorf("%s: loaded", name)
		} else if !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", name, err)
		}
	}
	if _, err := loadIndexedSnapshot(fxp2Join(secs)); err != nil {
		t.Fatalf("re-joined clean snapshot: %v", err)
	}
}

// TestThreeFormsOneRepresentation: a parsed document, an FXP2 reload and
// an FXP3 reload hold the same columns. The FXP3 encoder writes the
// columns straight out, so "the same columns" is "the same bytes when
// saved again", for every column of the tree, the statistics and the
// index at once; the rankings are compared on top. FXP3 is checked on
// generated documents, FXP2 — which nothing writes any more — on the
// checked-in fixture against a parse of the XML it was written from.
func TestThreeFormsOneRepresentation(t *testing.T) {
	queries := []*Query{
		MustParseQuery(`//item[./description/parlist and .contains("gold" or "vintage")]`),
		MustParseQuery(paperQ1),
	}
	sameAs := func(what string, parsed, d *Document) {
		t.Helper()
		if !bytes.Equal(fxp3Bytes(t, d), fxp3Bytes(t, parsed)) {
			t.Fatalf("%s saves differently from the parsed document", what)
		}
		for _, q := range queries {
			opts := SearchOptions{K: 10, Algorithm: Hybrid, Scheme: Combined, NoCache: true}
			want, err := parsed.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := renderRankingWithSnippets(got), renderRankingWithSnippets(want); g != w {
				t.Fatalf("%s ranks %s differently:\n%s\nvs\n%s", what, q, g, w)
			}
		}
	}

	articles, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	from2, err := loadIndexedSnapshot(goldenFXP2(t))
	if err != nil {
		t.Fatalf("FXP2 reload: %v", err)
	}
	sameAs("the FXP2 fixture", articles, from2)

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
		parsed := newDocument(tr, DocumentOptions{BM25: i%2 == 1})
		from3, err := LoadFXP3Snapshot(bytes.NewReader(fxp3Bytes(t, parsed)))
		if err != nil {
			t.Fatalf("tree %d: FXP3 reload: %v", i, err)
		}
		sameAs(fmt.Sprintf("tree %d: the FXP3 reload", i), parsed, from3)
	}
}

func renderRankingWithSnippets(as []Answer) string {
	var b bytes.Buffer
	for _, a := range as {
		fmt.Fprintf(&b, "%d|%x|%x|%d|%q\n", a.node, a.Structural, a.Keyword, a.Relaxations, a.Snippet(50))
	}
	return b.String()
}

// TestRefaultAllocsIndependentOfSize: faulting an already validated
// member back in builds headers, the tag table and empty caches — the
// same number of allocations for a 64 KB and a 2 MB document, because
// nothing is allocated per node or per term.
func TestRefaultAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const ceiling = 110
	var counts []float64
	for _, size := range []int64{64 << 10, 2 << 20} {
		tree, err := xmark.Build(xmark.Config{TargetBytes: size, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "m.fxp3")
		if err := NewDocument(tree).SaveFXP3SnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		c := NewCollection()
		defer c.Close() //nolint:errcheck
		if err := c.AddSnapshotFile("m", path); err != nil {
			t.Fatal(err)
		}
		_, members := c.snapshot()
		m := members[0]
		if _, err := c.require(m, nil); err != nil { // checksums and validates
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(20, func() {
			m.doc.Store(nil)
			if _, err := c.require(m, nil); err != nil {
				t.Fatal(err)
			}
		})
		if n > ceiling {
			t.Errorf("%d KB member: %v allocations per re-fault, ceiling %d", size>>10, n, ceiling)
		}
		counts = append(counts, n)
		t.Logf("%d KB member: %v allocations per re-fault", size>>10, n)
	}
	if counts[0] != counts[1] {
		t.Errorf("re-fault allocations grow with the document: %v for 64 KB, %v for 2 MB", counts[0], counts[1])
	}
}
