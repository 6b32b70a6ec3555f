package xmark

import (
	"bytes"
	"strings"
	"testing"

	"flexpath/internal/xmltree"
)

func TestDeterminism(t *testing.T) {
	cfg := Config{TargetBytes: 64 << 10, Seed: 11}
	var a, b bytes.Buffer
	if err := Generate(&a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := Generate(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same config produced different documents")
	}
	var c bytes.Buffer
	if err := Generate(&c, Config{TargetBytes: 64 << 10, Seed: 12}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical documents")
	}
}

func TestSizeTargeting(t *testing.T) {
	for _, target := range []int64{32 << 10, 256 << 10, 1 << 20} {
		var buf bytes.Buffer
		if err := Generate(&buf, Config{TargetBytes: target, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		got := int64(buf.Len())
		// Within 15% of the target: generation stops at section budgets,
		// so overshoot is bounded by one entity's size.
		if got < target*85/100 || got > target*115/100 {
			t.Errorf("target %d produced %d bytes (%.1f%%)", target, got, 100*float64(got)/float64(target))
		}
	}
}

func TestBuildMatchesGenerate(t *testing.T) {
	cfg := Config{TargetBytes: 96 << 10, Seed: 21}
	var buf bytes.Buffer
	if err := Generate(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	parsed, err := xmltree.Parse(&buf)
	if err != nil {
		t.Fatalf("generated document does not parse: %v", err)
	}
	built, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != built.Len() {
		t.Fatalf("Build has %d nodes, Parse(Generate) has %d", built.Len(), parsed.Len())
	}
	for n := xmltree.NodeID(0); int(n) < built.Len(); n++ {
		if built.TagName(n) != parsed.TagName(n) {
			t.Fatalf("node %d: tag %q != %q", n, built.TagName(n), parsed.TagName(n))
		}
		if built.Parent(n) != parsed.Parent(n) {
			t.Fatalf("node %d: parent mismatch", n)
		}
		if strings.TrimSpace(built.Text(n)) != strings.TrimSpace(parsed.Text(n)) {
			t.Fatalf("node %d: text %q != %q", n, built.Text(n), parsed.Text(n))
		}
	}
}

// TestRelaxationEnablers verifies the three DTD properties the paper's
// experiments rely on (§6): recursion, optionality, and sharing.
func TestRelaxationEnablers(t *testing.T) {
	d, err := Build(Config{TargetBytes: 512 << 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	// Recursive parlist: some parlist nested inside another parlist.
	nestedParlist := 0
	for _, p := range d.NodesWithTag("parlist") {
		for a := d.Parent(p); a != xmltree.InvalidNode; a = d.Parent(a) {
			if d.TagName(a) == "parlist" {
				nestedParlist++
				break
			}
		}
	}
	if nestedParlist == 0 {
		t.Error("no recursive parlist (edge generalization would be vacuous)")
	}

	// description//parlist strictly broader than description/parlist.
	directPairs, deepPairs := 0, 0
	for _, p := range d.NodesWithTag("parlist") {
		parent := d.Parent(p)
		if d.TagName(parent) == "description" {
			directPairs++
		}
		for a := parent; a != xmltree.InvalidNode; a = d.Parent(a) {
			if d.TagName(a) == "description" {
				deepPairs++
				break
			}
		}
	}
	if deepPairs <= directPairs {
		t.Errorf("description//parlist (%d) not broader than description/parlist (%d)", deepPairs, directPairs)
	}

	// Optional incategory: some items lack it.
	withoutCat := 0
	for _, it := range d.NodesWithTag("item") {
		has := false
		for _, c := range d.Children(it) {
			if d.TagName(c) == "incategory" {
				has = true
				break
			}
		}
		if !has {
			withoutCat++
		}
	}
	if withoutCat == 0 {
		t.Error("every item has incategory (leaf deletion would be vacuous)")
	}

	// Shared text: text occurs directly under mailbox (not only mail),
	// making contains/text promotion productive.
	mailboxText, mailText := 0, 0
	for _, x := range d.NodesWithTag("text") {
		switch d.TagName(d.Parent(x)) {
		case "mailbox":
			mailboxText++
		case "mail":
			mailText++
		}
	}
	if mailboxText == 0 || mailText == 0 {
		t.Errorf("text sharing absent: mailbox=%d mail=%d", mailboxText, mailText)
	}
}

func TestVocabularyPresence(t *testing.T) {
	d, err := Build(Config{TargetBytes: 128 << 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	text := d.SubtreeText(d.Root())
	for _, hot := range []string{"xml", "streaming", "gold"} {
		if !strings.Contains(text, hot) {
			t.Errorf("hot term %q absent from generated text", hot)
		}
	}
}

func TestSectionsPresent(t *testing.T) {
	d, err := Build(Config{TargetBytes: 128 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"site", "regions", "item", "people", "person",
		"open_auctions", "open_auction", "closed_auctions", "closed_auction",
		"categories", "category", "description", "mailbox", "name"} {
		if len(d.NodesWithTag(tag)) == 0 {
			t.Errorf("tag %q absent", tag)
		}
	}
	if got := len(d.NodesWithTag("site")); got != 1 {
		t.Errorf("site count = %d", got)
	}
}

// A zero target falls back to a small document rather than nothing.
func TestZeroConfig(t *testing.T) {
	d, err := Build(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 {
		t.Error("zero-config document is empty")
	}
}
