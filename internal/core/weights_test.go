package core

import (
	"testing"

	"flexpath/internal/exec"
	"flexpath/internal/rank"
	"flexpath/internal/tpq"
)

// TestUserEdgeWeights: a ^weight annotation on a query step scales both
// the base structural score and the penalties of relaxing that edge
// (§4.1: weights may be user-specified).
func TestUserEdgeWeights(t *testing.T) {
	f := newFixture(t, articlesXML)

	plain := f.chain(t, `//article[./section and ./title]`)
	weighted := f.chain(t, `//article[./section^3 and ./title]`)

	// Base: 1 + 1 = 2 vs 3 + 1 = 4.
	if plain.Base != 2 {
		t.Fatalf("plain base = %f", plain.Base)
	}
	if weighted.Base != 4 {
		t.Fatalf("weighted base = %f, want 4", weighted.Base)
	}

	// Relaxing the weighted edge must cost three times the plain edge's
	// penalty at the corresponding step.
	findPenalty := func(c *Chain, desc string) float64 {
		for _, s := range c.Steps {
			if s.Desc == desc {
				return s.Penalty
			}
		}
		t.Fatalf("step %q not in chain:\n%s", desc, c)
		return 0
	}
	pPlain := findPenalty(plain, "generalize edge article/section")
	pWeighted := findPenalty(weighted, "generalize edge article/section")
	if pPlain <= 0 {
		t.Fatalf("plain penalty %f", pPlain)
	}
	if got, want := pWeighted/pPlain, 3.0; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("weighted/plain penalty ratio = %f, want 3", got)
	}
}

func TestWeightAnnotationParsing(t *testing.T) {
	q := tpq.MustParse(`//a[./b^2.5 and .//c]`)
	bi := nodeByTag(q, "b")
	if q.Nodes[bi].Weight != 2.5 {
		t.Errorf("weight = %f", q.Nodes[bi].Weight)
	}
	if q.Nodes[nodeByTag(q, "c")].Weight != 0 {
		t.Error("unweighted step has weight")
	}
	// Weight is part of the canonical form (it changes ranking).
	if tpq.MustParse(`//a[./b^2]`).Canon() == tpq.MustParse(`//a[./b]`).Canon() {
		t.Error("weight not reflected in Canon")
	}
	for _, bad := range []string{`//a[./b^]`, `//a[./b^0]`, `//a[./b^x]`} {
		if _, err := tpq.Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

// TestWeightsAffectRanking: boosting one branch reorders relaxed answers.
func TestWeightsAffectRanking(t *testing.T) {
	// Two candidate answers: one misses the "b" branch, one misses "c".
	doc := `<r>
	  <x id="hasB"><b/><other/></x>
	  <x id="hasC"><c/><other/></x>
	</r>`
	f := newFixture(t, doc)

	run := func(src string) []string {
		c := f.chain(t, src)
		plan, err := c.PlanAt(c.Len())
		if err != nil {
			t.Fatal(err)
		}
		answers := exec.Run(plan, exec.Options{Scheme: rank.StructureFirst})
		var ids []string
		for _, a := range answers {
			id, _ := f.doc.Attr(a.Node, "id")
			ids = append(ids, id)
		}
		return ids
	}

	boostB := run(`//x[./b^5 and ./c]`)
	boostC := run(`//x[./b and ./c^5]`)
	if len(boostB) != 2 || len(boostC) != 2 {
		t.Fatalf("answers: %v / %v", boostB, boostC)
	}
	if boostB[0] != "hasB" {
		t.Errorf("boosting b should rank hasB first, got %v", boostB)
	}
	if boostC[0] != "hasC" {
		t.Errorf("boosting c should rank hasC first, got %v", boostC)
	}
}
