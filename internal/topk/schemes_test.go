package topk

import (
	"math"
	"testing"

	"flexpath/internal/exec"
	"flexpath/internal/rank"
)

// TestKeywordFirstGlobal: under keyword-first, the pruned SSO result must
// equal the brute-force ranking of the maximally relaxed plan (an answer
// with the worst structural score might still top the ranking, §5.1).
func TestKeywordFirstGlobal(t *testing.T) {
	f := xmarkFixture(t, 96<<10, 21)
	for _, src := range []string{
		`//item[./description/parlist and .contains("gold")]`,
		`//item[./mailbox/mail/text[.contains("xml" and "streaming")]]`,
	} {
		c := f.chain(t, src)
		plan, err := c.PlanAt(c.Len())
		if err != nil {
			t.Fatal(err)
		}
		full := exec.Run(plan, exec.Options{Scheme: rank.KeywordFirst})
		for _, k := range []int{1, 5, 20} {
			got := SSO(c, f.est, Options{K: k, Scheme: rank.KeywordFirst})
			limit := k
			if limit > len(full) {
				limit = len(full)
			}
			if len(got) < limit {
				t.Fatalf("%s k=%d: got %d answers, want >= %d", src, k, len(got), limit)
			}
			for i := 0; i < limit; i++ {
				if math.Abs(got[i].Score.KS-full[i].Score.KS) > 1e-9 {
					t.Errorf("%s k=%d rank %d: ks %f, brute force %f",
						src, k, i, got[i].Score.KS, full[i].Score.KS)
				}
			}
		}
	}
}

// TestCombinedPruningRule: DPO's §5.1 stop rule (ignore relaxations whose
// structural score drops below ss(i) - m) must not lose any top-K answer
// compared with walking the whole chain.
func TestCombinedPruningRule(t *testing.T) {
	f := xmarkFixture(t, 64<<10, 33)
	for _, src := range []string{
		`//item[./description/parlist and .contains("gold")]`,
		`//item[./description/parlist/listitem and ./name and .contains("rare")]`,
	} {
		c := f.chain(t, src)
		// Brute force: force DPO through every level by asking for more
		// answers than exist.
		brute := DPO(f.ev, c, Options{K: 1 << 20, Scheme: rank.Combined})
		for _, k := range []int{1, 3, 10} {
			got := DPO(f.ev, c, Options{K: k, Scheme: rank.Combined})
			limit := k
			if limit > len(brute) {
				limit = len(brute)
			}
			if len(got) < limit {
				t.Fatalf("%s k=%d: got %d, want >= %d", src, k, len(got), limit)
			}
			for i := 0; i < limit; i++ {
				gotTotal := got[i].Score.SS + got[i].Score.KS
				wantTotal := brute[i].Score.SS + brute[i].Score.KS
				if math.Abs(gotTotal-wantTotal) > 1e-9 {
					t.Errorf("%s k=%d rank %d: combined %f, brute force %f",
						src, k, i, gotTotal, wantTotal)
				}
			}
		}
	}
}

// TestStructureFirstTieRule: DPO must continue through zero-penalty
// (score-tied) levels after reaching K, or it could return a worse
// same-score answer set.
func TestStructureFirstTieRule(t *testing.T) {
	f := xmarkFixture(t, 64<<10, 33)
	c := f.chain(t, `//item[./description/parlist and ./name]`)
	brute := DPO(f.ev, c, Options{K: 1 << 20, Scheme: rank.StructureFirst})
	for _, k := range []int{2, 8} {
		got := DPO(f.ev, c, Options{K: k, Scheme: rank.StructureFirst})
		limit := k
		if limit > len(brute) {
			limit = len(brute)
		}
		for i := 0; i < limit; i++ {
			if math.Abs(got[i].Score.SS-brute[i].Score.SS) > 1e-9 {
				t.Errorf("k=%d rank %d: ss %f vs brute %f", k, i, got[i].Score.SS, brute[i].Score.SS)
			}
		}
	}
}
