package xmltree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"
)

// writeBinary is the FXT1 encoder the library no longer has. The tests
// keep it so the legacy reader is held to arbitrary documents, not only
// to the golden fixture.
func writeBinary(d *Document) []byte {
	b := append([]byte(nil), binaryMagic[:]...)
	uvarint := func(v uint64) { b = binary.AppendUvarint(b, v) }
	str := func(s string) { uvarint(uint64(len(s))); b = append(b, s...) }
	uvarint(uint64(len(d.tags)))
	for _, t := range d.tags {
		str(t)
	}
	uvarint(uint64(len(d.nodeTag)))
	for n := range d.nodeTag {
		uvarint(uint64(d.nodeTag[n]))
		uvarint(uint64(d.end[n]) - uint64(n))
		uvarint(uint64(d.level[n]))
		uvarint(uint64(d.parent[n] + 1))
		str(d.Text(NodeID(n)))
		uvarint(d.attrCnt[n+1] - d.attrCnt[n])
		for i := d.attrCnt[n]; i < d.attrCnt[n+1]; i++ {
			a := d.attr(i)
			str(a.Name)
			str(a.Value)
		}
	}
	uvarint(uint64(d.size))
	return b
}

// goldenTreeSection returns the tree section of the checked-in FXP2
// fixture, bytes written by a release that still had the encoder.
func goldenTreeSection(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("../../testdata/golden_indexed.fxp2")
	if err != nil {
		t.Fatal(err)
	}
	n, w := binary.Uvarint(data[4:])
	return data[4+w : 4+w+int(n)]
}

func TestBinaryRoundTrip(t *testing.T) {
	d := mustParse(t, sampleXML)
	got, err := ReadBinary(bytes.NewReader(writeBinary(d)))
	if err != nil {
		t.Fatal(err)
	}
	assertDocsEqual(t, d, got)
}

func assertDocsEqual(t *testing.T, want, got *Document) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	if got.SourceBytes() != want.SourceBytes() {
		t.Errorf("SourceBytes = %d, want %d", got.SourceBytes(), want.SourceBytes())
	}
	for n := NodeID(0); int(n) < want.Len(); n++ {
		if got.TagName(n) != want.TagName(n) ||
			got.End(n) != want.End(n) ||
			got.Level(n) != want.Level(n) ||
			got.Parent(n) != want.Parent(n) ||
			got.Text(n) != want.Text(n) {
			t.Fatalf("node %d differs", n)
		}
		wa, ga := want.Attrs(n), got.Attrs(n)
		if len(wa) != len(ga) {
			t.Fatalf("node %d attr count %d != %d", n, len(ga), len(wa))
		}
		for i := range wa {
			if wa[i] != ga[i] {
				t.Fatalf("node %d attr %d differs", n, i)
			}
		}
	}
	// Tag indexes rebuilt correctly.
	for ti := 0; ti < want.NumTags(); ti++ {
		name := want.TagNameOf(TagID(ti))
		if len(got.NodesWithTag(name)) != len(want.NodesWithTag(name)) {
			t.Fatalf("tag %q index differs", name)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"short magic": []byte("FX"),
		"bad magic":   []byte("NOPE1234"),
		"truncated":   []byte("FXT1\x05"),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBinaryRejectsCorruptedBody(t *testing.T) {
	data := goldenTreeSection(t)
	if d, err := ReadBinary(bytes.NewReader(data)); err != nil || d.Len() == 0 {
		t.Fatalf("golden tree section: %v", err)
	}
	// Truncations anywhere must error, not panic.
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadBinary(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("accepted truncation at %d", cut)
		}
	}
}

func TestBinaryPropertyRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomTree(r)
		got, err := ReadBinary(bytes.NewReader(writeBinary(d)))
		if err != nil {
			return false
		}
		if got.Len() != d.Len() {
			return false
		}
		for n := NodeID(0); int(n) < d.Len(); n++ {
			if got.TagName(n) != d.TagName(n) || got.Parent(n) != d.Parent(n) ||
				got.End(n) != d.End(n) || got.Text(n) != d.Text(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBinarySpecialContent(t *testing.T) {
	d := mustParse(t, `<a x="quote&quot;here">text with &lt;angle&gt; brackets &amp; unicode ☃</a>`)
	got, err := ReadBinary(bytes.NewReader(writeBinary(d)))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.Text(0), "☃") {
		t.Errorf("unicode lost: %q", got.Text(0))
	}
	if v, _ := got.Attr(0, "x"); v != `quote"here` {
		t.Errorf("attr = %q", v)
	}
}
