package topk

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"flexpath/internal/core"
	"flexpath/internal/exec"
	"flexpath/internal/rank"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

// paperQueries are the paper's XQ1, XQ2 and XQ3.
var paperQueries = []string{
	`//item[./description/parlist]`,
	`//item[./description/parlist and ./mailbox/mail/text]`,
	`//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]`,
}

// sameAnswer reports whether a and b agree bit for bit: node, both score
// components and signature.
func sameAnswer(a, b exec.Answer) bool {
	return a.Node == b.Node && a.Sig == b.Sig &&
		math.Float64bits(a.Score.SS) == math.Float64bits(b.Score.SS) &&
		math.Float64bits(a.Score.KS) == math.Float64bits(b.Score.KS)
}

// TestSettledRootScan: an exact plan of XQ1-XQ3 earns nothing and its
// root is the distinguished variable, so a run with K > 0 stops its root
// scan at the K-th answer. At every chain level, K, scheme and
// organization it must return the exhaustive run's first K answers bit
// for bit, and its root row must score at most K candidates whenever K
// answers exist.
func TestSettledRootScan(t *testing.T) {
	f := xmarkFixture(t, 96<<10, 5)
	for _, src := range paperQueries {
		c := f.chain(t, src)
		for j := 0; j <= c.Len(); j++ {
			plan, err := c.ExactPlanAt(j)
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range schemes() {
				full := exec.Run(plan, exec.Options{Scheme: scheme})
				for _, k := range pruneKs {
					for _, mode := range []exec.Mode{exec.ModeSorted, exec.ModeBuckets} {
						var trace []exec.StepTrace
						got := exec.Run(plan, exec.Options{K: k, Scheme: scheme, Mode: mode, Trace: &trace})
						want := full[:min(k, len(full))]
						if !slices.EqualFunc(got, want, sameAnswer) {
							t.Fatalf("%s level %d %v K=%d mode %d:\n got %v\nwant %v", src, j, scheme, k, mode, got, want)
						}
						if len(full) >= k && trace[0].Scored > k {
							t.Errorf("%s level %d %v K=%d mode %d: root scored %d candidates of %d",
								src, j, scheme, k, mode, trace[0].Scored, trace[0].Candidates)
						}
					}
				}
			}
		}
	}
}

// dpoExhaustive is DPO with every level's plan run to the end: each level
// excludes the answers of the levels before it and, once K answers are
// held, the walk stops where DPO's stop rule says. DPO itself runs some
// levels with K, and must return exactly what this does.
func dpoExhaustive(t *testing.T, c *core.Chain, k int, scheme rank.Scheme) (results []Result, perLevel []int) {
	t.Helper()
	seen := map[xmltree.NodeID]bool{}
	stop, reached := c.Len(), false
	for level := 0; level <= stop; level++ {
		plan, err := c.ExactPlanAt(level)
		if err != nil {
			t.Fatal(err)
		}
		answers := exec.Run(plan, exec.Options{Scheme: scheme, Exclude: seen})
		for _, a := range answers {
			seen[a.Node] = true
			results = append(results, Result{Node: a.Node,
				Score: rank.Score{SS: c.SSAt(level), KS: a.Score.KS}, Relaxations: level})
		}
		perLevel = append(perLevel, len(answers))
		if len(results) < k || reached {
			continue
		}
		reached = true
		switch scheme {
		case rank.StructureFirst:
			for stop = level; stop < c.Len() && c.SSAt(stop+1) >= c.SSAt(level); stop++ {
			}
		case rank.Combined:
			m := float64(c.Original.NumContains())
			for stop = level; stop < c.Len() && c.SSAt(stop+1) > c.SSAt(level)-m; stop++ {
			}
		}
	}
	sortResults(results, scheme)
	return results[:min(k, len(results))], perLevel
}

// dpoQueries are XQ1, XQ2 and contains queries whose relaxations move a
// keyword score up the pattern, so that an answer a level leaves out
// would come back one level lower with another score.
var dpoQueries = append(paperQueries[:2:2],
	`//item[./description/parlist and .contains("gold")]`,
	`//item[./description[.contains("gold")] and ./name]`,
	`//item[./mailbox/mail/text[.contains("xml" or "vintage")]]`,
	`//item[./description/parlist[.contains("rare")]]`,
)

// tiedChain builds src's chain with every penalty zero: structural
// predicates weigh nothing and neither does dropping a contains predicate,
// while keyword scores keep their unit weight. Every level then ties with
// the next under structure-first, and DPO must walk them all.
func tiedChain(t *testing.T, f *fixture, src string) *core.Chain {
	t.Helper()
	q := tpq.MustParse(src)
	w := rank.Weights{Contains: 1, PerPred: map[string]float64{}}
	u := f.chain(t, src).U
	for i := range u.Len() {
		if u.Pred(i).Kind == tpq.PredContains {
			w.PerPred[u.Key(i)] = 0
		}
	}
	c, err := core.BuildChain(f.doc, f.ix, f.st, w, q)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDPOLevelKMatchesExhaustive: DPO runs a level with K only when it
// would be the last level should it fill K. Under every scheme, at K one
// below, at and one above the number of answers the first levels hold,
// DPO must return what it returns with every level run to the end: the
// same nodes, scores and levels, in the same order. The chains are the
// queries' own and ones whose levels all tie.
func TestDPOLevelKMatchesExhaustive(t *testing.T) {
	f := xmarkFixture(t, 96<<10, 5)
	var chains []*core.Chain
	for _, src := range dpoQueries {
		chains = append(chains, f.chain(t, src), tiedChain(t, f, src))
	}
	for _, c := range chains {
		src := c.Original.String()
		for _, scheme := range schemes() {
			_, perLevel := dpoExhaustive(t, c, math.MaxInt, scheme)
			ks := map[int]bool{1: true, 10: true}
			for j, held := 0, 0; j < min(len(perLevel), 6); j++ {
				held += perLevel[j]
				for _, k := range []int{held - 1, held, held + 1} {
					ks[max(k, 1)] = true
				}
			}
			for k := range ks {
				want, _ := dpoExhaustive(t, c, k, scheme)
				got := DPO(nil, c, Options{K: k, Scheme: scheme})
				if err := sameResults(got, want); err != nil {
					t.Errorf("%s %v K=%d: %v", src, scheme, k, err)
				}
			}
		}
	}
}

// sameResults compares two rankings bit for bit, levels included.
func sameResults(got, want []Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Node != w.Node || g.Relaxations != w.Relaxations ||
			math.Float64bits(g.Score.SS) != math.Float64bits(w.Score.SS) ||
			math.Float64bits(g.Score.KS) != math.Float64bits(w.Score.KS) {
			return fmt.Errorf("rank %d is %+v, want %+v", i, g, w)
		}
	}
	return nil
}
