package xmltree

import (
	"math/rand"
	"strings"
	"testing"
)

// The tree's binary snapshot form is its FXP3 section payload
// (EncodeColumnar). These tests hold the payload to round trips and
// damaged payloads to clean errors; the container's checksums sit above
// them and are tested in internal/fxp3.

// load restores a document from a section payload the way the snapshot
// layer does: decode, then validate once.
func load(payload []byte) (*Document, error) {
	d, err := DecodeColumnar(payload)
	if err != nil {
		return nil, err
	}
	return d, d.Validate()
}

func TestBinaryRoundTrip(t *testing.T) {
	d := mustParse(t, sampleXML)
	got, err := load(d.EncodeColumnar())
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
	for ti := 0; ti < want.NumTags(); ti++ {
		name := want.TagNameOf(TagID(ti))
		if len(got.NodesWithTag(name)) != len(want.NodesWithTag(name)) {
			t.Fatalf("tag %q index differs", name)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	counts := func(tags, nodes, attrs uint64) []byte {
		var b []byte
		for _, v := range []uint64{tags, nodes, attrs, 0} {
			for i := 0; i < 8; i++ {
				b = append(b, byte(v>>(8*i)))
			}
		}
		return b
	}
	cases := map[string][]byte{
		"empty":                  {},
		"shorter than a scalar":  []byte("FX"),
		"implausible counts":     counts(1<<40, 1, 0),
		"counts with no columns": counts(1, 1, 0),
	}
	for name, data := range cases {
		if _, err := load(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// A truncated payload must fail cleanly, never panic, and never load as
// a different document: the only cuts that may load are inside the last
// column's zero padding, which loses nothing.
func TestBinaryRejectsCorruptedBody(t *testing.T) {
	d := mustParse(t, sampleXML)
	data := d.EncodeColumnar()
	for cut := 0; cut < len(data); cut++ {
		if got, err := load(data[:cut]); err == nil {
			if len(data)-cut >= 8 {
				t.Fatalf("accepted truncation at %d of %d", cut, len(data))
			}
			assertDocsEqual(t, d, got)
		}
	}
}

func TestBinaryPropertyRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 50 && !t.Failed(); seed++ {
		binaryRoundTrip(t, seed)
	}
}

func FuzzBinaryPropertyRoundTrip(f *testing.F) { f.Fuzz(binaryRoundTrip) }

// binaryRoundTrip encodes and reloads a random tree drawn from seed.
func binaryRoundTrip(t *testing.T, seed int64) {
	d := randomTree(rand.New(rand.NewSource(seed)))
	got, err := load(d.EncodeColumnar())
	if err != nil {
		t.Fatalf("seed %d: reload: %v", seed, err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("seed %d: reloaded %d nodes of %d", seed, got.Len(), d.Len())
	}
	for n := NodeID(0); int(n) < d.Len(); n++ {
		if got.TagName(n) != d.TagName(n) || got.Parent(n) != d.Parent(n) ||
			got.End(n) != d.End(n) || got.Text(n) != d.Text(n) {
			t.Fatalf("seed %d: node %d reloads differently", seed, n)
		}
	}
}

func TestBinarySpecialContent(t *testing.T) {
	d := mustParse(t, `<a x="quote&quot;here">text with &lt;angle&gt; brackets &amp; unicode ☃</a>`)
	got, err := load(d.EncodeColumnar())
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
