package xmltree

import (
	"math/rand"
	"strings"
	"testing"
)

const sampleXML = `<site>
  <regions>
    <africa>
      <item id="i1"><name>gold ring</name><quantity>2</quantity></item>
      <item id="i2"><name>silver coin</name></item>
    </africa>
    <asia>
      <item id="i3"><description><parlist><listitem><text>rare vase</text></listitem></parlist></description></item>
    </asia>
  </regions>
</site>`

func mustParse(t *testing.T, s string) *Document {
	t.Helper()
	d, err := ParseString(s)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

func TestParseBasic(t *testing.T) {
	d := mustParse(t, sampleXML)
	if got, want := d.Len(), 14; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if d.TagName(d.Root()) != "site" {
		t.Errorf("root tag = %q", d.TagName(d.Root()))
	}
	items := d.NodesWithTag("item")
	if len(items) != 3 {
		t.Fatalf("items = %d, want 3", len(items))
	}
	if id, ok := d.Attr(items[0], "id"); !ok || id != "i1" {
		t.Errorf("first item id = %q, %v", id, ok)
	}
	if _, ok := d.Attr(items[0], "missing"); ok {
		t.Error("found nonexistent attribute")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"text only":      "hello",
		"multiple roots": "<a></a><b></b>",
		"unbalanced":     "<a><b></a>",
	}
	for name, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestIntervalEncoding(t *testing.T) {
	d := mustParse(t, sampleXML)
	// Every node's interval must contain exactly its descendants.
	for n := NodeID(0); int(n) < d.Len(); n++ {
		for m := NodeID(0); int(m) < d.Len(); m++ {
			viaInterval := d.IsAncestor(n, m)
			viaParents := false
			for p := d.Parent(m); p != InvalidNode; p = d.Parent(p) {
				if p == n {
					viaParents = true
					break
				}
			}
			if viaInterval != viaParents {
				t.Fatalf("IsAncestor(%d,%d) = %v, parent chain says %v", n, m, viaInterval, viaParents)
			}
		}
	}
}

func TestLevelsAndParents(t *testing.T) {
	d := mustParse(t, sampleXML)
	if d.Level(d.Root()) != 0 {
		t.Errorf("root level = %d", d.Level(d.Root()))
	}
	for n := NodeID(1); int(n) < d.Len(); n++ {
		p := d.Parent(n)
		if p == InvalidNode {
			t.Fatalf("non-root node %d has no parent", n)
		}
		if d.Level(n) != d.Level(p)+1 {
			t.Errorf("level(%d) = %d, parent level %d", n, d.Level(n), d.Level(p))
		}
		if !d.IsParent(p, n) {
			t.Errorf("IsParent(%d,%d) = false", p, n)
		}
	}
}

func TestChildren(t *testing.T) {
	d := mustParse(t, sampleXML)
	root := d.Root()
	kids := d.Children(root)
	if len(kids) != 1 || d.TagName(kids[0]) != "regions" {
		t.Fatalf("root children = %v", kids)
	}
	regions := kids[0]
	kids = d.Children(regions)
	if len(kids) != 2 {
		t.Fatalf("regions children = %d, want 2", len(kids))
	}
	for _, c := range kids {
		if d.Parent(c) != regions {
			t.Errorf("child %d has parent %d", c, d.Parent(c))
		}
	}
}

func TestPath(t *testing.T) {
	d := mustParse(t, sampleXML)
	items := d.NodesWithTag("item")
	if got := d.Path(items[0]); got != "/site/regions/africa/item" {
		t.Errorf("Path = %q", got)
	}
}

func TestSubtreeText(t *testing.T) {
	d := mustParse(t, sampleXML)
	items := d.NodesWithTag("item")
	text := d.SubtreeText(items[0])
	if !strings.Contains(text, "gold ring") || !strings.Contains(text, "2") {
		t.Errorf("SubtreeText = %q", text)
	}
}

func TestTagLookup(t *testing.T) {
	d := mustParse(t, sampleXML)
	if d.TagByName("no-such-tag") != InvalidTag {
		t.Error("unknown tag resolved")
	}
	if d.NodesWithTag("no-such-tag") != nil {
		t.Error("unknown tag has nodes")
	}
	id := d.TagByName("item")
	if d.TagNameOf(id) != "item" {
		t.Errorf("TagNameOf round trip failed")
	}
	if len(d.NodesWithTagID(id)) != 3 {
		t.Error("NodesWithTagID mismatch")
	}
}

func TestWriteXMLRoundTrip(t *testing.T) {
	d := mustParse(t, sampleXML)
	var sb strings.Builder
	if err := d.WriteXML(&sb, d.Root()); err != nil {
		t.Fatal(err)
	}
	d2, err := ParseString(sb.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("round trip node count %d != %d", d2.Len(), d.Len())
	}
	for n := NodeID(0); int(n) < d.Len(); n++ {
		if d.TagName(n) != d2.TagName(n) {
			t.Fatalf("node %d tag %q != %q", n, d.TagName(n), d2.TagName(n))
		}
		if strings.TrimSpace(d.Text(n)) != strings.TrimSpace(d2.Text(n)) {
			t.Fatalf("node %d text %q != %q", n, d.Text(n), d2.Text(n))
		}
	}
}

func TestEscaping(t *testing.T) {
	d := mustParse(t, `<a x="1&amp;2">a &lt; b</a>`)
	if v, _ := d.Attr(0, "x"); v != "1&2" {
		t.Errorf("attr = %q", v)
	}
	if d.Text(0) != "a < b" {
		t.Errorf("text = %q", d.Text(0))
	}
	var sb strings.Builder
	if err := d.WriteXML(&sb, 0); err != nil {
		t.Fatal(err)
	}
	d2 := mustParse(t, sb.String())
	if d2.Text(0) != "a < b" {
		t.Errorf("round trip text = %q", d2.Text(0))
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.Open("a")
	if _, err := b.Document(); err == nil {
		t.Error("unclosed element accepted")
	}
	b = NewBuilder()
	b.Open("a")
	b.Close()
	b.Open("b")
	b.Close()
	if _, err := b.Document(); err == nil {
		t.Error("two roots accepted")
	}
}

// randomTree builds a random document and checks structural invariants.
func randomTree(r *rand.Rand) *Document {
	b := NewBuilder()
	tags := []string{"a", "b", "c", "d", "e"}
	var build func(depth int)
	build = func(depth int) {
		b.Open(tags[r.Intn(len(tags))])
		if r.Intn(2) == 0 {
			b.Text("w" + string(rune('a'+r.Intn(26))))
		}
		if depth < 6 {
			for i := 0; i < r.Intn(4); i++ {
				build(depth + 1)
			}
		}
		b.Close()
	}
	build(0)
	d, err := b.Document()
	if err != nil {
		panic(err)
	}
	return d
}

func TestPropertyIntervalInvariants(t *testing.T) {
	for seed := int64(1); seed <= 60 && !t.Failed(); seed++ {
		intervalInvariants(t, seed)
	}
}

func FuzzPropertyIntervalInvariants(f *testing.F) { f.Fuzz(intervalInvariants) }

// intervalInvariants checks the interval encoding of a random tree
// drawn from seed.
func intervalInvariants(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	d := randomTree(r)
	// (1) end is within bounds and >= self.
	for n := NodeID(0); int(n) < d.Len(); n++ {
		if d.End(n) < n || int(d.End(n)) >= d.Len() {
			t.Fatalf("seed %d: node %d ends at %d of %d", seed, n, d.End(n), d.Len())
		}
	}
	// (2) siblings have disjoint intervals; children nest in parents.
	for n := NodeID(1); int(n) < d.Len(); n++ {
		p := d.Parent(n)
		if !(p < n && n <= d.End(p)) {
			t.Fatalf("seed %d: node %d is outside its parent %d's interval", seed, n, p)
		}
	}
	// (3) document order within tag lists.
	for ti := 0; ti < d.NumTags(); ti++ {
		l := d.NodesWithTagID(TagID(ti))
		for i := 1; i < len(l); i++ {
			if l[i-1] >= l[i] {
				t.Fatalf("seed %d: tag %d's list is out of document order at %d", seed, ti, i)
			}
		}
	}
}

func TestPropertyContains(t *testing.T) {
	for seed := int64(1); seed <= 40 && !t.Failed(); seed++ {
		containsMatchesParents(t, seed)
	}
}

func FuzzPropertyContains(f *testing.F) { f.Fuzz(containsMatchesParents) }

// containsMatchesParents holds Contains to a walk up the parents on
// node pairs of a random tree, all drawn from seed.
func containsMatchesParents(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	d := randomTree(r)
	for trial := 0; trial < 50; trial++ {
		a := NodeID(r.Intn(d.Len()))
		b := NodeID(r.Intn(d.Len()))
		want := a == b
		for p := b; p != InvalidNode; p = d.Parent(p) {
			if p == a {
				want = true
				break
			}
		}
		if d.Contains(a, b) != want {
			t.Fatalf("seed %d: Contains(%d, %d) = %v", seed, a, b, !want)
		}
	}
}

// TestNamespacesStripped documents namespace handling: encoding/xml
// resolves prefixes and this package keeps local names only, so
// differently-prefixed but same-named elements unify.
func TestNamespacesStripped(t *testing.T) {
	d := mustParse(t, `<a xmlns:x="urn:one" xmlns:y="urn:two"><x:b/><y:b/><b/></a>`)
	if got := len(d.NodesWithTag("b")); got != 3 {
		t.Errorf("namespaced b elements = %d, want 3 (local names unify)", got)
	}
}
