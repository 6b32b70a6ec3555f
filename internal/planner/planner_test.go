package planner

import (
	"math"
	"testing"
	"time"

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
  <article><title>layouts</title>
    <section><title>xml streaming storage</title><algorithm>split</algorithm><paragraph>pages</paragraph></section>
  </article>
  <article><title>joins</title>
    <section><paragraph>xml streaming joins</paragraph></section>
    <appendix><algorithm>twig</algorithm></appendix>
  </article>
  <article><title>other</title>
    <section><paragraph>nothing relevant</paragraph></section>
  </article>
</collection>`

const srcQ1 = `//article[./section[./algorithm and ./paragraph[.contains("XML" and "streaming")]]]`

type fixture struct {
	doc *xmltree.Document
	ix  *ir.Index
	st  *stats.Stats
	est *stats.Estimator
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	doc, err := xmltree.ParseString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	ix := ir.NewIndex(doc)
	st := stats.Collect(doc)
	return &fixture{doc: doc, ix: ix, st: st, est: stats.NewEstimator(st, ix)}
}

func (f *fixture) chain(t testing.TB, src string) *core.Chain {
	t.Helper()
	c, err := core.BuildChain(f.doc, f.ix, f.st, rank.UniformWeights(), tpq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChooseDeterministicAndCounted(t *testing.T) {
	f := newFixture(t)
	chain := f.chain(t, srcQ1)
	p := New(f.est)
	first := p.Choose(chain, nil, 3, rank.StructureFirst)
	if first.Reason != ReasonMinCost {
		t.Fatalf("reason = %q, want %q", first.Reason, ReasonMinCost)
	}
	if first.Explain == "" {
		t.Error("empty Explain")
	}
	for i := 0; i < 4; i++ {
		// Without observations the model is static: same query, same
		// choice.
		if c := p.Choose(chain, nil, 3, rank.StructureFirst); c.Algo != first.Algo || c.Level != first.Level {
			t.Fatalf("choice flapped without observations: %+v vs %+v", c, first)
		}
	}
	s := p.Snapshot()
	if s.Choices[first.Algo.String()] != 5 {
		t.Errorf("choices = %v, want 5 × %s", s.Choices, first.Algo)
	}
	if s.Reasons[ReasonMinCost] != 5 {
		t.Errorf("reasons = %v", s.Reasons)
	}
	if s.Observations != 0 || len(s.NsPerUnit) != 0 {
		t.Errorf("unexpected calibration before any Observe: %+v", s)
	}
}

func TestAdmittingLevelMatchesEstimator(t *testing.T) {
	f := newFixture(t)
	chain := f.chain(t, srcQ1)
	p := New(f.est)
	// keyword-first must encode the whole chain.
	if c := p.Choose(chain, nil, 2, rank.KeywordFirst); c.Level != chain.Len() {
		t.Errorf("keyword-first level = %d, want %d", c.Level, chain.Len())
	}
	// A huge K exhausts the chain.
	if c := p.Choose(chain, nil, 1<<20, rank.StructureFirst); c.Level != chain.Len() {
		t.Errorf("huge-K level = %d, want %d", c.Level, chain.Len())
	}
	// Levels are monotone in K.
	prev := 0
	for _, k := range []int{1, 2, 4, 8, 16} {
		c := p.Choose(chain, nil, k, rank.StructureFirst)
		if c.Level < prev {
			t.Errorf("level decreased at K=%d: %d < %d", k, c.Level, prev)
		}
		prev = c.Level
	}
}

func TestCalibrationPullsChoice(t *testing.T) {
	f := newFixture(t)
	chain := f.chain(t, srcQ1)
	p := New(f.est)
	first := p.Choose(chain, nil, 3, rank.StructureFirst)
	// Feed grossly slow observations for the chosen algorithm: its
	// calibrated ns-per-unit must grow until the planner switches away.
	switched := false
	for i := 0; i < 20; i++ {
		c := p.Choose(chain, nil, 3, rank.StructureFirst)
		if c.Algo != first.Algo {
			switched = true
			break
		}
		p.Observe(c, time.Second, 0)
	}
	if !switched {
		t.Fatalf("planner never abandoned %v despite 1s observed runs", first.Algo)
	}
	s := p.Snapshot()
	if s.NsPerUnit[first.Algo.String()] <= 1 {
		t.Errorf("ns_per_unit not calibrated: %+v", s)
	}
	if s.Observations == 0 {
		t.Error("observations not counted")
	}
}

// TestBoundPlannersShareOneCalibration: planners bound to one calibration
// (a collection's members) count into it and choose from it, so one
// member's observations steer another's choice; New's calibration is its
// own.
func TestBoundPlannersShareOneCalibration(t *testing.T) {
	f := newFixture(t)
	chain := f.chain(t, srcQ1)
	var cal Calibration
	a, b := Bind(f.est, &cal), Bind(f.est, &cal)
	first := a.Choose(chain, nil, 3, rank.StructureFirst)
	for i := 0; i < 20; i++ {
		a.Observe(first, time.Second, 0)
	}
	if c := b.Choose(chain, nil, 3, rank.StructureFirst); c.Algo == first.Algo {
		t.Errorf("b still chose %v after a observed it running 1s twenty times", c.Algo)
	}
	s := cal.Snapshot()
	if s.Observations != 20 || s.Choices[first.Algo.String()] == 0 || len(s.Reasons) == 0 {
		t.Errorf("shared calibration %+v, want 20 observations and both choices", s)
	}
	if own := New(f.est).Snapshot(); own.Observations != 0 || len(own.Choices) != 0 {
		t.Errorf("a new planner starts calibrated: %+v", own)
	}
}

func TestCalibrationErrorShrinksOnStableRuntimes(t *testing.T) {
	f := newFixture(t)
	chain := f.chain(t, srcQ1)
	p := New(f.est)
	c := p.Choose(chain, nil, 3, rank.StructureFirst)
	for i := 0; i < 30; i++ {
		p.Observe(c, 5*time.Millisecond, 0)
	}
	s := p.Snapshot()
	got, ok := s.CalibrationError[c.Algo.String()]
	if !ok {
		t.Fatalf("no calibration error recorded: %+v", s)
	}
	// After repeated identical run times the calibrated prediction must
	// be near-exact (|log actual/predicted| → 0).
	if got > 0.05 {
		t.Errorf("calibration error = %v, want < 0.05", got)
	}
}

func TestRestartGuardDemotesToDPO(t *testing.T) {
	f := newFixture(t)
	chain := f.chain(t, srcQ1)
	p := New(f.est)
	c := p.Choose(chain, nil, 3, rank.StructureFirst)
	if c.Algo == DPO {
		t.Skip("model already picks DPO for this fixture; guard unobservable")
	}
	// Report heavy restarting but near-zero run times: the cost model
	// alone would keep preferring the plan-based algorithm, so a DPO
	// choice can only come from the guard.
	for i := 0; i < guardMinRuns+2; i++ {
		p.Observe(c, time.Nanosecond, 3)
	}
	g := p.Choose(chain, nil, 3, rank.StructureFirst)
	if g.Algo != DPO || g.Reason != ReasonRestartGuard {
		t.Fatalf("guard did not demote: algo=%v reason=%q", g.Algo, g.Reason)
	}
	s := p.Snapshot()
	if s.RestartRate <= guardRate {
		t.Errorf("restart rate = %v, want > %v", s.RestartRate, guardRate)
	}
	if s.Reasons[ReasonRestartGuard] == 0 {
		t.Error("restart-guard reason not counted")
	}
}

func TestPassUnitsPositiveAndMonotone(t *testing.T) {
	f := newFixture(t)
	chain := f.chain(t, srcQ1)
	prev := 0.0
	for j := 0; j <= chain.Len(); j++ {
		u := f.est.PassUnits(chain.QueryAt(j))
		if u <= 0 || math.IsNaN(u) {
			t.Fatalf("PassUnits(level %d) = %v", j, u)
		}
		_ = prev
		prev = u
	}
}

func TestAlgoNames(t *testing.T) {
	names := Names()
	want := []string{"DPO", "SSO", "Hybrid"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("name %d = %q, want %q", i, names[i], want[i])
		}
	}
}
