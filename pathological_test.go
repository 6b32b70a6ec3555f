package flexpath

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"flexpath/internal/xmark"
)

// TestPathologicalQueries runs shapes that stress corner cases of the
// chain builder and plan evaluator through the whole public API: every
// query must run under every algorithm without error, return consistent
// answer counts across algorithms, and respect K.
func TestPathologicalQueries(t *testing.T) {
	tree, err := xmark.Build(xmark.Config{TargetBytes: 96 << 10, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	doc := NewDocument(tree)

	queries := []string{
		// Single node, contains only: no structural relaxation possible.
		`//item[.contains("gold")]`,
		// Single node, no predicates at all.
		`//item`,
		// Deep pure chain.
		`//site/regions/africa/item/description/parlist/listitem`,
		// Wide star: many independent branches.
		`//item[./name and ./incategory and ./payment and ./shipping and ./quantity and ./location]`,
		// Repeated tags at different positions.
		`//parlist[./listitem/parlist/listitem]`,
		// Multiple contains on one node.
		`//item[.contains("gold") and .contains("silver")]`,
		// contains at several levels of one path.
		`//item[./description[.contains("rare")] and .contains("gold")]`,
		// Descendant-only edges.
		`//site[.//listitem and .//keyword]`,
		// Mixed content predicate and attribute predicate.
		`//item[./quantity < 3 and @id != "item1"]`,
		// Distinguished node deep in the main path with branches.
		`//site/regions//item[./name]/description`,
	}
	for _, src := range queries {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		counts := map[Algorithm]int{}
		for _, algo := range []Algorithm{DPO, SSO, Hybrid} {
			answers, err := doc.Search(q, SearchOptions{K: 15, Algorithm: algo})
			if err != nil {
				t.Fatalf("%s via %v: %v", src, algo, err)
			}
			if len(answers) > 15 {
				t.Errorf("%s via %v: %d answers > K", src, algo, len(answers))
			}
			counts[algo] = len(answers)
		}
		if counts[SSO] != counts[Hybrid] {
			t.Errorf("%s: SSO %d vs Hybrid %d answers", src, counts[SSO], counts[Hybrid])
		}
		if counts[DPO] != counts[SSO] {
			t.Errorf("%s: DPO %d vs SSO %d answers", src, counts[DPO], counts[SSO])
		}
	}
}

// TestRootContainsNeverRelaxed: a query that is only a root contains has
// an empty relaxation chain — the loosest interpretation keeps the
// full-text search.
func TestRootContainsNeverRelaxed(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := doc.Relaxations(context.Background(), MustParseQuery(`//article[.contains("xml")]`), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 0 {
		t.Errorf("root-contains query has %d relaxation steps, want 0: %+v", len(steps), steps)
	}
}

// TestDeepChainRelaxation: a 8-level pure path query relaxes without
// error and its chain ends at the root-only query.
func TestDeepChainRelaxation(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<l0>")
	for i := 1; i < 8; i++ {
		fmt.Fprintf(&sb, "<l%d>", i)
	}
	sb.WriteString("needle words")
	for i := 7; i >= 1; i-- {
		fmt.Fprintf(&sb, "</l%d>", i)
	}
	sb.WriteString("</l0>")
	doc, err := LoadString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`//l0/l1/l2/l3/l4/l5/l6/l7[.contains("needle")]`)
	steps, err := doc.Relaxations(context.Background(), q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("no relaxations for deep chain")
	}
	answers, err := doc.Search(q, SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 || answers[0].Relaxations != 0 {
		t.Errorf("deep chain search: %+v", answers)
	}
}

// TestNoMatchesAnywhere: a query whose keywords appear nowhere returns no
// answers from any algorithm (relaxation never invents matches).
func TestNoMatchesAnywhere(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`//article[./section[.contains("zzzmissingterm")]]`)
	for _, algo := range []Algorithm{DPO, SSO, Hybrid} {
		answers, err := doc.Search(q, SearchOptions{K: 5, Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(answers) != 0 {
			t.Errorf("%v: %d answers for impossible query", algo, len(answers))
		}
	}
}

// TestUnknownTagsEverywhere: tags absent from the document yield empty
// results, not errors.
func TestUnknownTagsEverywhere(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`//widget[./gadget and .contains("xml")]`)
	for _, algo := range []Algorithm{DPO, SSO, Hybrid} {
		answers, err := doc.Search(q, SearchOptions{K: 5, Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(answers) != 0 {
			t.Errorf("%v: matched unknown tags", algo)
		}
	}
}
