package planner

import (
	"testing"

	"flexpath/internal/core"
	"flexpath/internal/ir"
	"flexpath/internal/rank"
	"flexpath/internal/stats"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

const articlesXML = `
<collection>
  <article><title>streaming xml</title>
    <section><algorithm>merge</algorithm><paragraph>xml streaming passes</paragraph></section>
  </article>
  <article><title>joins</title>
    <section><paragraph>xml streaming joins</paragraph></section>
    <appendix><algorithm>twig</algorithm></appendix>
  </article>
</collection>`

// TestRule: Hybrid exactly when the scheme is keyword-first and the query
// has a contains predicate, DPO otherwise, each with its branch's reason;
// Choose over a chain agrees with Rule over the chain's query at every K.
func TestRule(t *testing.T) {
	doc, err := xmltree.ParseString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	ix, st := ir.NewIndex(doc), stats.Collect(doc)
	p := New(stats.NewEstimator(st, ix))
	for _, tc := range []struct {
		src      string
		contains bool
	}{
		{`//article[./section[./algorithm and ./paragraph[.contains("XML" and "streaming")]]]`, true},
		{`//article[.contains("twig")]`, true},
		{`//article[./section/algorithm]`, false},
	} {
		q := tpq.MustParse(tc.src)
		chain, err := core.BuildChain(doc, ix, st, rank.UniformWeights(), q)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []rank.Scheme{rank.StructureFirst, rank.KeywordFirst, rank.Combined} {
			want := Choice{Algo: DPO, Reason: reasonDPO}
			if scheme == rank.KeywordFirst && tc.contains {
				want = Choice{Algo: Hybrid, Reason: reasonHybrid}
			}
			if got := Rule(q, scheme); got != want {
				t.Errorf("Rule(%s, %v) = %+v, want %+v", tc.src, scheme, got, want)
			}
			for _, k := range []int{0, 1, 10, 600} {
				if got := p.Choose(chain, nil, k, scheme); got != want {
					t.Errorf("Choose(%s, K=%d, %v) = %+v, want %+v", tc.src, k, scheme, got, want)
				}
			}
		}
	}
}

func TestAlgoNames(t *testing.T) {
	for a, want := range map[Algo]string{DPO: "DPO", SSO: "SSO", Hybrid: "Hybrid"} {
		if got := a.String(); got != want {
			t.Errorf("Algo(%d) = %q, want %q", a, got, want)
		}
	}
}
