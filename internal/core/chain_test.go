package core

import (
	"testing"

	"flexpath/internal/exec"
	"flexpath/internal/ir"
	"flexpath/internal/rank"
	"flexpath/internal/stats"
	"flexpath/internal/tpq"
	"flexpath/internal/xmark"
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

type fixture struct {
	doc *xmltree.Document
	ix  *ir.Index
	st  *stats.Stats
	ev  *exec.Evaluator
	est *stats.Estimator
}

func newFixture(t testing.TB, xml string) *fixture {
	t.Helper()
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return fixtureFor(doc)
}

func fixtureFor(doc *xmltree.Document) *fixture {
	ix := ir.NewIndex(doc)
	st := stats.Collect(doc)
	return &fixture{
		doc: doc, ix: ix, st: st,
		ev:  exec.NewEvaluator(doc, ix),
		est: stats.NewEstimator(st, ix),
	}
}

func xmarkFixture(t testing.TB, bytes int64, seed int64) *fixture {
	t.Helper()
	doc, err := xmark.Build(xmark.Config{TargetBytes: bytes, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return fixtureFor(doc)
}

func (f *fixture) chain(t testing.TB, src string) *Chain {
	t.Helper()
	c, err := BuildChain(f.doc, f.ix, f.st, rank.UniformWeights(), tpq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChainMonotone(t *testing.T) {
	f := newFixture(t, articlesXML)
	c := f.chain(t, srcQ1)
	if c.Len() == 0 {
		t.Fatal("empty chain")
	}
	prevSS := c.Base
	prev := c.Original
	for j := 1; j <= c.Len(); j++ {
		s := c.Steps[j-1]
		if s.Penalty < 0 {
			t.Errorf("step %d: negative penalty %f", j, s.Penalty)
		}
		if s.SS > prevSS+1e-9 {
			t.Errorf("step %d: ss increased %f -> %f", j, prevSS, s.SS)
		}
		if err := s.Query.Validate(); err != nil {
			t.Errorf("step %d: invalid query: %v", j, err)
		}
		if !tpq.ContainedIn(prev, s.Query) {
			t.Errorf("step %d: previous level not contained in %s", j, s.Query)
		}
		if tpq.ContainedIn(s.Query, prev) {
			t.Errorf("step %d: no strict relaxation (equivalent to previous)", j)
		}
		prevSS = s.SS
		prev = s.Query
	}
}

func TestChainEndsAtLoosest(t *testing.T) {
	f := newFixture(t, articlesXML)
	c := f.chain(t, srcQ1)
	last := c.QueryAt(c.Len())
	// The loosest interpretation keeps only the root with the full-text
	// predicate: //article[.contains("XML" and "streaming")] (= Q6).
	if last.Canon() != tpq.MustParse(srcQ6).Canon() {
		t.Errorf("chain ends at %s, want Q6", last)
	}
}

func TestChainAnswerMonotone(t *testing.T) {
	f := newFixture(t, articlesXML)
	c := f.chain(t, srcQ1)
	prev := map[xmltree.NodeID]bool{}
	for j := 0; j <= c.Len(); j++ {
		answers := f.ev.Evaluate(c.QueryAt(j))
		got := map[xmltree.NodeID]bool{}
		for _, a := range answers {
			got[a] = true
		}
		for a := range prev {
			if !got[a] {
				t.Errorf("level %d lost answer %d of level %d", j, a, j-1)
			}
		}
		prev = got
	}
	// The loosest level admits exactly the articles containing both
	// keywords anywhere: articles 1-3.
	if len(prev) != 3 {
		t.Errorf("loosest level has %d answers, want 3", len(prev))
	}
}

func TestChainNeverDropsRootContains(t *testing.T) {
	f := newFixture(t, articlesXML)
	c := f.chain(t, srcQ1)
	rootID := c.Original.Nodes[0].ID
	for _, s := range c.Steps {
		for _, p := range s.Dropped {
			if p.Kind == tpq.PredContains && p.X == rootID {
				t.Fatalf("chain dropped the root contains predicate: %s", p.Key())
			}
		}
	}
}

func TestChainDistMoves(t *testing.T) {
	// When the distinguished leaf is deleted, its parent takes over.
	f := newFixture(t, articlesXML)
	c := f.chain(t, `//article/section/paragraph[.contains("xml")]`)
	sawMove := false
	for j := 1; j <= c.Len(); j++ {
		q := c.QueryAt(j)
		if q.Nodes[q.Dist].Tag != "paragraph" {
			sawMove = true
		}
	}
	if !sawMove {
		t.Log("distinguished node never moved (paragraph was never deleted); chain:")
		t.Log(c.String())
	}
}

func TestPlanExactMatchesEvaluator(t *testing.T) {
	f := newFixture(t, articlesXML)
	for _, src := range []string{srcQ1, srcQ3, srcQ5, `//article[./section/paragraph]`} {
		c := f.chain(t, src)
		plan, err := c.PlanAt(0)
		if err != nil {
			t.Fatal(err)
		}
		answers := exec.Run(plan, exec.Options{})
		exact := f.ev.Evaluate(c.Original)
		if len(answers) != len(exact) {
			t.Fatalf("%s: plan found %d answers, evaluator %d", src, len(answers), len(exact))
		}
		got := map[xmltree.NodeID]bool{}
		for _, a := range answers {
			got[a.Node] = true
			if a.Score.SS != c.Base {
				t.Errorf("%s: exact answer has ss %f, want base %f", src, a.Score.SS, c.Base)
			}
		}
		for _, n := range exact {
			if !got[n] {
				t.Errorf("%s: plan missed exact answer %d", src, n)
			}
		}
	}
}

// TestPlanLevelsMatchEvaluator: for every chain prefix, the plan's answer
// set (exhaustive mode) equals the exact evaluation of the relaxed query
// at that level.
func TestPlanLevelsMatchEvaluator(t *testing.T) {
	f := newFixture(t, articlesXML)
	for _, src := range []string{srcQ1, `//article[./section[./algorithm and ./paragraph]]`} {
		c := f.chain(t, src)
		for j := 0; j <= c.Len(); j++ {
			plan, err := c.PlanAt(j)
			if err != nil {
				t.Fatalf("%s level %d: %v", src, j, err)
			}
			answers := exec.Run(plan, exec.Options{})
			exact := f.ev.Evaluate(c.QueryAt(j))
			if len(answers) != len(exact) {
				t.Errorf("%s level %d: plan %d answers, evaluator %d\nquery: %s",
					src, j, len(answers), len(exact), c.QueryAt(j))
				continue
			}
			got := map[xmltree.NodeID]bool{}
			for _, a := range answers {
				got[a.Node] = true
			}
			for _, n := range exact {
				if !got[n] {
					t.Errorf("%s level %d: plan missed %d", src, j, n)
				}
			}
		}
	}
}

// TestPlanScoresBounded: per-answer structural scores lie between the
// level's uniform score (all encoded relaxations unsatisfied) and the
// base (all satisfied), and exact answers keep the base score.
func TestPlanScoresBounded(t *testing.T) {
	f := newFixture(t, articlesXML)
	c := f.chain(t, srcQ1)
	j := c.Len()
	plan, err := c.PlanAt(j)
	if err != nil {
		t.Fatal(err)
	}
	answers := exec.Run(plan, exec.Options{})
	exact := map[xmltree.NodeID]bool{}
	for _, n := range f.ev.Evaluate(c.Original) {
		exact[n] = true
	}
	for _, a := range answers {
		if a.Score.SS < c.SSAt(j)-1e-9 || a.Score.SS > c.Base+1e-9 {
			t.Errorf("answer %d ss %f outside [%f, %f]", a.Node, a.Score.SS, c.SSAt(j), c.Base)
		}
		if exact[a.Node] && a.Score.SS < c.Base-1e-9 {
			t.Errorf("exact answer %d scored %f < base %f", a.Node, a.Score.SS, c.Base)
		}
		if !exact[a.Node] && a.Score.SS > c.Base-1e-9 {
			t.Errorf("relaxed answer %d scored full base %f", a.Node, a.Score.SS)
		}
		if a.Score.KS < 0 || a.Score.KS > float64(c.Original.NumContains())+1e-9 {
			t.Errorf("answer %d ks %f out of range", a.Node, a.Score.KS)
		}
	}
}

func TestChainOnXMark(t *testing.T) {
	f := xmarkFixture(t, 128<<10, 13)
	for _, src := range []string{
		`//item[./description/parlist]`,
		`//item[./description/parlist and ./mailbox/mail/text]`,
	} {
		c := f.chain(t, src)
		if c.Len() == 0 {
			t.Fatalf("%s: empty chain", src)
		}
		// Penalties must be sorted ascending only within validity
		// constraints; at minimum the first step picks the global
		// cheapest droppable predicate.
		first := c.Steps[0]
		if first.Penalty < 0 {
			t.Errorf("%s: first penalty %f", src, first.Penalty)
		}
		// Every level gains answers or keeps them (monotone).
		prev := -1
		for j := 0; j <= c.Len(); j++ {
			n := len(f.ev.Evaluate(c.QueryAt(j)))
			if n < prev {
				t.Errorf("%s: level %d has %d answers, fewer than %d", src, j, n, prev)
			}
			prev = n
		}
	}
}

func TestChainCaching(t *testing.T) {
	f := newFixture(t, articlesXML)
	c := f.chain(t, srcQ1)
	// Plans at all levels build without error and stay consistent.
	for j := 0; j <= c.Len(); j++ {
		plan, err := c.PlanAt(j)
		if err != nil {
			t.Fatalf("PlanAt(%d): %v", j, err)
		}
		if plan.FirstOptional < 1 || plan.FirstOptional > len(plan.Vars) {
			t.Errorf("PlanAt(%d): FirstOptional=%d of %d", j, plan.FirstOptional, len(plan.Vars))
		}
		if plan.DistVar < 0 || plan.DistVar >= plan.FirstOptional {
			t.Errorf("PlanAt(%d): distinguished var %d not required", j, plan.DistVar)
		}
		for i, v := range plan.Vars {
			if v.Anchor >= i {
				t.Errorf("PlanAt(%d): var %d anchored to later var %d", j, i, v.Anchor)
			}
		}
	}
	if _, err := c.PlanAt(-1); err == nil {
		t.Error("PlanAt(-1) accepted")
	}
	if _, err := c.PlanAt(c.Len() + 1); err == nil {
		t.Error("PlanAt(Len+1) accepted")
	}
}

// TestChainStepsWithinOperatorSpace cross-checks the two faces of
// Theorem 2: the chain generates relaxations by dropping closure
// predicates, the operator set generates them by applying γ/λ/σ/κ — every
// chain level must therefore appear in the operator-enumerated space.
func TestChainStepsWithinOperatorSpace(t *testing.T) {
	f := newFixture(t, articlesXML)
	for _, src := range []string{
		srcQ1,
		`//article[./section/paragraph[.contains("xml")]]`,
		`//article[.//algorithm and ./section]`,
	} {
		c := f.chain(t, src)
		space := EnumerateRelaxations(tpq.MustParse(src), -1)
		canon := make(map[string]bool, len(space))
		for _, r := range space {
			canon[r.Query.Canon()] = true
		}
		for j := 1; j <= c.Len(); j++ {
			if !canon[c.QueryAt(j).Canon()] {
				t.Errorf("%s: chain level %d (%s) not in the operator space",
					src, j, c.QueryAt(j))
			}
		}
	}
}

// TestOperatorPredicateCorrespondence: each single operator application
// corresponds to dropping predicates from the closure (the equivalence
// the paper leans on when describing the algorithms via "the next
// predicate dropped"). Concretely: the relaxed query's closure must be a
// strict subset of the original's closure, modulo re-derivation.
func TestOperatorPredicateCorrespondence(t *testing.T) {
	q := tpq.MustParse(srcQ1)
	clQ := tpq.ClosureOf(q)
	for _, op := range ApplicableOps(q) {
		relaxed, err := op.Apply(q)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		clR := tpq.ClosureOf(relaxed)
		// Every predicate of the relaxed closure must already hold in
		// the original closure (dropping only ever removes constraints)…
		for _, p := range clR.List() {
			if p.Kind == tpq.PredTag || p.Kind == tpq.PredValue {
				continue
			}
			if !clQ.Has(p) {
				t.Errorf("%v introduced predicate %s", op, p.Key())
			}
		}
		// …and at least one predicate must be gone.
		dropped := 0
		for _, p := range clQ.List() {
			if !clR.Has(p) {
				dropped++
			}
		}
		if dropped == 0 {
			t.Errorf("%v dropped nothing (not a strict relaxation)", op)
		}
	}
}

// TestChainAccessors covers the chain's introspection surface.
func TestChainAccessors(t *testing.T) {
	f := newFixture(t, articlesXML)
	c := f.chain(t, srcQ1)
	if c.Weights().Structural != 1 || c.Weights().Contains != 1 {
		t.Errorf("weights: %+v", c.Weights())
	}
	if c.Index() != f.ix || c.Doc() != f.doc {
		t.Error("index/doc accessors wrong")
	}
	if c.Hierarchy() != nil {
		t.Error("hierarchy should be nil")
	}
	s := c.String()
	if s == "" || len(c.Steps) > 0 && !containsStr(s, c.Steps[0].Desc) {
		t.Errorf("String() = %q", s)
	}
	// PenaltyOfPC falls back to the structural weight for unknown pairs.
	if got := c.PenaltyOfPC(99, 100); got != 1 {
		t.Errorf("fallback penalty = %f", got)
	}
	// StepBits: each step's mask is non-zero and disjoint masks cover the
	// chain's bit space.
	var all uint64
	for j := 1; j <= c.Len(); j++ {
		m := c.StepBits(j)
		if m == 0 {
			t.Errorf("step %d has empty bit mask", j)
		}
		if all&m != 0 && c.Len() < 64 {
			t.Errorf("step %d mask overlaps earlier steps", j)
		}
		all |= m
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestEncodingMoreRelaxationsInvariants: across encoded prefixes, answer
// sets only grow, no score ever exceeds the base, and an answer's score
// may drift per prefix only within the penalty budget of the newly
// dropped predicates. (A strict per-answer monotonicity does NOT hold:
// a deeper relaxation can free a variable to bind where it regains a
// more valuable optional predicate than the one just dropped — scores
// are relative to the chosen encoding, as §5.2.1 describes. SSO/Hybrid
// always use a single encoding per query, so ranking consistency within
// one search is unaffected.)
func TestEncodingMoreRelaxationsInvariants(t *testing.T) {
	f := xmarkFixture(t, 64<<10, 11)
	c := f.chain(t, `//item[./description/parlist and ./mailbox/mail/text]`)
	prev := map[xmltree.NodeID]float64{}
	for j := 0; j <= c.Len(); j++ {
		plan, err := c.PlanAt(j)
		if err != nil {
			t.Fatal(err)
		}
		var stepPenalty float64
		if j > 0 {
			stepPenalty = c.Steps[j-1].Penalty
		}
		answers := exec.Run(plan, exec.Options{})
		cur := map[xmltree.NodeID]float64{}
		for _, a := range answers {
			if a.Score.SS > c.Base+1e-9 {
				t.Errorf("level %d: answer %d above base: %f", j, a.Node, a.Score.SS)
			}
			cur[a.Node] = a.Score.SS
		}
		for n, ss := range prev {
			now, ok := cur[n]
			if !ok {
				t.Errorf("level %d lost answer %d", j, n)
				continue
			}
			// The score may move, but only within what this step's
			// dropped predicates and re-binding freedom allow: never by
			// more than the total penalty moved at this step.
			if now > ss+stepPenalty+1e-9 {
				t.Errorf("level %d: answer %d rose %f -> %f beyond step penalty %f",
					j, n, ss, now, stepPenalty)
			}
		}
		prev = cur
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
	h := tpq.NewHierarchy(map[string]string{"article": "publication", "book": "publication"})
	for _, c := range []struct {
		h    *tpq.Hierarchy
		want int
	}{{nil, 1}, {h, 2}} { // publication, then publication + article
		chain, err := BuildChainH(f.doc, f.ix, f.st, rank.UniformWeights(), q, c.h)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := chain.PlanAt(0)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(exec.Run(plan, exec.Options{})); got != c.want {
			t.Errorf("hierarchy %v: %d answers, want %d", c.h != nil, got, c.want)
		}
	}
}

func TestBuildChainHRejectsCyclicHierarchy(t *testing.T) {
	f := newFixture(t, articlesXML)
	h := tpq.NewHierarchy(map[string]string{"a": "b", "b": "a"})
	if _, err := BuildChainH(f.doc, f.ix, f.st, rank.UniformWeights(), tpq.MustParse(srcQ1), h); err == nil {
		t.Error("accepted cyclic hierarchy")
	}
}
