package xmltree

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// refNode is the per-node heap form the columns replaced: one string
// and one attribute slice per node, filled the way the old Builder
// filled them. It is the oracle the column accessors are held to.
type refNode struct {
	tag   string
	text  string
	attrs []Attr
}

// refBuilder records the same Open/Text/Close calls as a Builder.
type refBuilder struct {
	nodes []refNode
	stack []int
}

func (r *refBuilder) open(tag string, attrs ...Attr) {
	r.stack = append(r.stack, len(r.nodes))
	r.nodes = append(r.nodes, refNode{tag: tag, attrs: append([]Attr(nil), attrs...)})
}

func (r *refBuilder) text(s string) {
	if strings.TrimSpace(s) == "" {
		return
	}
	n := &r.nodes[r.stack[len(r.stack)-1]]
	if n.text == "" {
		n.text = s
	} else {
		n.text += " " + s
	}
}

func (r *refBuilder) close() { r.stack = r.stack[:len(r.stack)-1] }

// randomMixed drives a Builder and the reference with one random call
// sequence that includes what the flat text blob finds hard: text after
// a child has opened (at several depths at once), repeated fragments,
// whitespace-only and empty text, empty attribute values, nodes with no
// attributes and documents with none at all.
func randomMixed(r *rand.Rand) (*Document, []refNode) {
	b, ref := NewBuilder(), &refBuilder{}
	tags := []string{"a", "b", "c", "d", "e", "f"}
	withAttrs := r.Intn(4) > 0
	frag := func() string {
		return []string{"", " ", "x", "two words", " lead", "trail ", "é☃", "<&>\""}[r.Intn(8)]
	}
	var build func(depth int)
	build = func(depth int) {
		var attrs []Attr
		if withAttrs {
			for i := r.Intn(3); i > 0; i-- {
				attrs = append(attrs, Attr{Name: "k" + string(rune('0'+i)), Value: frag()})
			}
		}
		tag := tags[r.Intn(len(tags))]
		b.Open(tag, attrs...)
		ref.open(tag, attrs...)
		for i := r.Intn(3); i > 0; i-- {
			s := frag()
			b.Text(s)
			ref.text(s)
		}
		if depth < 5 {
			for i := r.Intn(4); i > 0; i-- {
				build(depth + 1)
				for j := r.Intn(3); j > 0; j-- {
					s := frag()
					b.Text(s)
					ref.text(s)
				}
			}
		}
		b.Close()
		ref.close()
	}
	build(0)
	d, err := b.Document()
	if err != nil {
		panic(err)
	}
	return d, ref.nodes
}

// reloads returns d with its FXP3 reload.
func reloads(t *testing.T, d *Document) map[string]*Document {
	t.Helper()
	fxp3, err := load(d.EncodeColumnar())
	if err != nil {
		t.Fatalf("FXP3 reload: %v", err)
	}
	return map[string]*Document{"built": d, "fxp3": fxp3}
}

func TestColumnsMatchPerNodeReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		d, ref := randomMixed(rand.New(rand.NewSource(seed)))
		var wantXML strings.Builder
		if err := d.WriteXML(&wantXML, d.Root()); err != nil {
			t.Fatal(err)
		}
		for form, got := range reloads(t, d) {
			if got.Len() != len(ref) {
				t.Fatalf("seed %d %s: %d nodes, want %d", seed, form, got.Len(), len(ref))
			}
			byTag := map[string][]NodeID{}
			for i, want := range ref {
				n := NodeID(i)
				byTag[want.tag] = append(byTag[want.tag], n)
				if got.TagName(n) != want.tag || got.Text(n) != want.text {
					t.Fatalf("seed %d %s node %d: <%s>%q, want <%s>%q", seed, form, i, got.TagName(n), got.Text(n), want.tag, want.text)
				}
				if as := got.Attrs(n); !reflect.DeepEqual(as, want.attrs) && (len(as) > 0 || len(want.attrs) > 0) {
					t.Fatalf("seed %d %s node %d: attrs %v, want %v", seed, form, i, as, want.attrs)
				}
				for _, a := range want.attrs {
					if v, ok := got.Attr(n, a.Name); !ok || v != a.Value {
						t.Fatalf("seed %d %s node %d: Attr(%q) = %q,%v want %q", seed, form, i, a.Name, v, ok, a.Value)
					}
				}
				if _, ok := got.Attr(n, "absent"); ok {
					t.Fatalf("seed %d %s node %d: found an absent attribute", seed, form, i)
				}
				var sub []string
				for m := n; m <= got.End(n); m++ {
					if ref[m].text != "" {
						sub = append(sub, ref[m].text)
					}
				}
				if s := got.SubtreeText(n); s != strings.Join(sub, " ") {
					t.Fatalf("seed %d %s node %d: SubtreeText %q, want %q", seed, form, i, s, strings.Join(sub, " "))
				}
			}
			for tag, want := range byTag {
				if l := got.NodesWithTag(tag); !reflect.DeepEqual(l, want) {
					t.Fatalf("seed %d %s: NodesWithTag(%q) = %v, want %v", seed, form, tag, l, want)
				}
			}
			var xml strings.Builder
			if err := got.WriteXML(&xml, got.Root()); err != nil {
				t.Fatal(err)
			}
			if xml.String() != wantXML.String() {
				t.Fatalf("seed %d %s: WriteXML differs", seed, form)
			}
		}
	}
}

// A tag the table lists but no node carries is legal in a snapshot (a
// Builder never writes one); every form answers it with an empty list.
func TestTagWithZeroNodes(t *testing.T) {
	d := mustParse(t, sampleXML)
	d.tags = append(d.tags, "ghost")
	d.tagIDs["ghost"] = TagID(len(d.tags) - 1)
	d.byTagOff = append(d.byTagOff, d.byTagOff[len(d.byTagOff)-1])
	for form, got := range reloads(t, d) {
		if got.NumTags() != d.NumTags() || got.TagByName("ghost") == InvalidTag {
			t.Fatalf("%s lost the unused tag", form)
		}
		if l := got.NodesWithTag("ghost"); len(l) != 0 {
			t.Errorf("%s: NodesWithTag(ghost) = %v", form, l)
		}
		if l := got.NodesWithTag("item"); len(l) != 3 {
			t.Errorf("%s: items = %v", form, l)
		}
	}
}

// Validate rejects each column value the accessors or the joins would
// otherwise trust.
func TestValidateRejectsBrokenColumns(t *testing.T) {
	breaks := map[string]func(d *Document){
		"tag out of range":         func(d *Document) { d.nodeTag[2] = TagID(d.NumTags()) },
		"interval end before node": func(d *Document) { d.end[3] = 2 },
		"parent after node":        func(d *Document) { d.parent[2] = 5 },
		"level off the parent's":   func(d *Document) { d.level[2] = 7 },
		"text offsets decreasing":  func(d *Document) { d.textOff[4] = d.textOff[len(d.textOff)-1] + 1 },
		"text beyond the blob":     func(d *Document) { d.textOff[len(d.textOff)-1]++ },
		"attribute count beyond":   func(d *Document) { d.attrCnt[len(d.attrCnt)-1]++ },
		"attribute offsets beyond": func(d *Document) { d.attrOff[len(d.attrOff)-1]++ },
		"tag list out of order": func(d *Document) {
			l := d.NodesWithTag("item")
			l[0], l[1] = l[1], l[0]
		},
		"tag list with a foreign node": func(d *Document) { d.NodesWithTag("item")[0] = 0 },
		"tag lists not covering":       func(d *Document) { d.byTagOff[len(d.byTagOff)-1]-- },
	}
	for name, edit := range breaks {
		d, err := DecodeColumnar(mustParse(t, sampleXML).EncodeColumnar())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("clean document: %v", err)
		}
		edit(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
