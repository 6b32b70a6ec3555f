package core

import (
	"testing"

	"flexpath/internal/exec"
	"flexpath/internal/ir"
	"flexpath/internal/rank"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

func extHierarchy() *tpq.Hierarchy {
	return tpq.NewHierarchy(map[string]string{
		"article": "publication",
		"book":    "publication",
	})
}

func TestRelaxTag(t *testing.T) {
	h := extHierarchy()
	q := tpq.MustParse(`//article[./section]`)
	relaxed, err := RelaxTag(q, 0, h)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Nodes[0].Tag != "publication" {
		t.Errorf("tag = %q", relaxed.Nodes[0].Tag)
	}
	// Soundness under the hierarchy: original contained in relaxed.
	if !tpq.ContainedInWith(q, relaxed, h) {
		t.Error("tag relaxation is not a containment under the hierarchy")
	}
	if _, err := RelaxTag(q, 1, h); err == nil {
		t.Error("relaxed a tag without supertype")
	}
	if _, err := RelaxTag(q, 9, h); err == nil {
		t.Error("accepted out-of-range node")
	}
}

func TestApplicableTagOps(t *testing.T) {
	h := extHierarchy()
	q := tpq.MustParse(`//article[./book and ./section]`)
	ops := ApplicableTagOps(q, h)
	if len(ops) != 2 {
		t.Fatalf("ApplicableTagOps = %v, want two (article, book)", ops)
	}
}

func TestWeakenValue(t *testing.T) {
	q := tpq.MustParse(`//item[@price <= 98 and @qty > 5]`)
	w, err := WeakenValue(q, 0, 0, "100")
	if err != nil {
		t.Fatal(err)
	}
	if w.Nodes[0].Values[0].Value != "100" {
		t.Errorf("value = %q", w.Nodes[0].Values[0].Value)
	}
	// Weakening must strictly enlarge: tightening is rejected.
	if _, err := WeakenValue(q, 0, 0, "90"); err == nil {
		t.Error("accepted a tightening of <=")
	}
	if _, err := WeakenValue(q, 0, 0, "98"); err == nil {
		t.Error("accepted a no-op")
	}
	// > weakens downward.
	if _, err := WeakenValue(q, 0, 1, "3"); err != nil {
		t.Errorf("weakening > downward failed: %v", err)
	}
	if _, err := WeakenValue(q, 0, 1, "7"); err == nil {
		t.Error("accepted a tightening of >")
	}
	// Equality cannot be weakened.
	qe := tpq.MustParse(`//item[@lang = "en"]`)
	if _, err := WeakenValue(qe, 0, 0, "fr"); err == nil {
		t.Error("weakened an equality predicate")
	}
	// Lexicographic weakening for non-numeric literals.
	ql := tpq.MustParse(`//item[@name < "m"]`)
	if _, err := WeakenValue(ql, 0, 0, "z"); err != nil {
		t.Errorf("lexicographic weakening failed: %v", err)
	}
}

// TestWeakenValueSoundness: answers of the weakened query include the
// original's on a concrete document.
func TestWeakenValueSoundness(t *testing.T) {
	doc, err := xmltree.ParseString(`<r>
	  <item price="95"/><item price="99"/><item price="105"/>
	</r>`)
	if err != nil {
		t.Fatal(err)
	}
	ev := exec.NewEvaluator(doc, ir.NewIndex(doc))
	q := tpq.MustParse(`//item[@price <= 98]`)
	w, err := WeakenValue(q, 0, 0, "100")
	if err != nil {
		t.Fatal(err)
	}
	orig := ev.Evaluate(q)
	weak := ev.Evaluate(w)
	if len(orig) != 1 || len(weak) != 2 {
		t.Fatalf("orig=%d weak=%d, want 1 and 2", len(orig), len(weak))
	}
}

// TestHierarchySearchEndToEnd: a chain built with a hierarchy matches
// subtype elements.
func TestHierarchySearchEndToEnd(t *testing.T) {
	doc, err := xmltree.ParseString(`<lib>
	  <publication><section><p>gold coins</p></section></publication>
	  <article><section><p>gold rings</p></section></article>
	  <book><section><p>silver</p></section></book>
	</lib>`)
	if err != nil {
		t.Fatal(err)
	}
	f := fixtureFor(doc)
	q := tpq.MustParse(`//publication[./section[.contains("gold")]]`)

	plain, err := BuildChain(f.doc, f.ix, f.st, rank.UniformWeights(), q)
	if err != nil {
		t.Fatal(err)
	}
	planP, err := plain.PlanAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(exec.Run(planP, exec.Options{})); got != 1 {
		t.Fatalf("plain search found %d answers, want 1", got)
	}

	withH, err := BuildChainH(f.doc, f.ix, f.st, rank.UniformWeights(), q, extHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	planH, err := withH.PlanAt(0)
	if err != nil {
		t.Fatal(err)
	}
	answers := exec.Run(planH, exec.Options{})
	if len(answers) != 2 {
		t.Fatalf("hierarchy search found %d answers, want 2 (publication + article)", len(answers))
	}

	// The semijoin evaluator agrees.
	evH := exec.NewEvaluator(f.doc, f.ix).WithHierarchy(extHierarchy())
	if got := len(evH.Evaluate(q)); got != 2 {
		t.Errorf("hierarchy evaluator found %d answers, want 2", got)
	}
}

func TestBuildChainHRejectsCyclicHierarchy(t *testing.T) {
	f := newFixture(t, articlesXML)
	h := tpq.NewHierarchy(map[string]string{"a": "b", "b": "a"})
	if _, err := BuildChainH(f.doc, f.ix, f.st, rank.UniformWeights(), tpq.MustParse(srcQ1), h); err == nil {
		t.Error("accepted cyclic hierarchy")
	}
}
