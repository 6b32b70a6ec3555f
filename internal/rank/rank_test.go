package rank

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexpath/internal/ir"
	"flexpath/internal/stats"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

const penaltyXML = `<lib>
  <shelf>
    <book><title>gold atlas</title><chapter><para>gold maps</para></chapter></book>
    <book><title>lead atlas</title><chapter><para>plain maps</para></chapter></book>
    <book><wrapper><chapter><para>gold deep</para></chapter></wrapper></book>
  </shelf>
</lib>`

func fixture(t testing.TB) (*xmltree.Document, *stats.Stats, *ir.Index) {
	t.Helper()
	doc, err := xmltree.ParseString(penaltyXML)
	if err != nil {
		t.Fatal(err)
	}
	return doc, stats.Collect(doc), ir.NewIndex(doc)
}

func TestSchemeCompare(t *testing.T) {
	a := Score{SS: 3, KS: 0.2}
	b := Score{SS: 2, KS: 0.9}
	if a.Compare(b, StructureFirst) <= 0 {
		t.Error("structure-first must prefer higher ss")
	}
	if a.Compare(b, KeywordFirst) >= 0 {
		t.Error("keyword-first must prefer higher ks")
	}
	if a.Compare(b, Combined) <= 0 { // 3.2 vs 2.9
		t.Error("combined must prefer higher sum")
	}
	// Lexicographic tiebreak.
	c := Score{SS: 3, KS: 0.5}
	if a.Compare(c, StructureFirst) >= 0 {
		t.Error("equal ss must fall back to ks")
	}
	if a.Compare(a, StructureFirst) != 0 || a.Compare(a, Combined) != 0 {
		t.Error("self-comparison not zero")
	}
}

func TestSchemeTotal(t *testing.T) {
	s := Score{SS: 2, KS: 0.5}
	if s.Total(StructureFirst) != 2 || s.Total(KeywordFirst) != 0.5 || s.Total(Combined) != 2.5 {
		t.Errorf("Total projections wrong: %v %v %v",
			s.Total(StructureFirst), s.Total(KeywordFirst), s.Total(Combined))
	}
}

func TestParseScheme(t *testing.T) {
	for _, s := range []Scheme{StructureFirst, KeywordFirst, Combined} {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v failed: %v %v", s, got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("accepted bogus scheme")
	}
}

func TestPenaltyFormulas(t *testing.T) {
	doc, st, ix := fixture(t)
	_ = doc
	q := tpq.MustParse(`//book[./chapter[./para[.contains("gold")]]]`)
	u := tpq.NewUniverse(q)
	pen := NewPenalizer(st, ix, UniformWeights(), u)

	// π(pc(book,chapter)) = #pc/#ad * w = 2/3.
	got := pen.Penalty(u.Index(tpq.Pred{Kind: tpq.PredPC, X: 1, Y: 2}))
	if want := 2.0 / 3.0; !close(got, want) {
		t.Errorf("pc penalty = %f, want %f", got, want)
	}

	// π(ad(book,chapter)) = #ad / (#book * #chapter) = 3/(3*3) = 1/3.
	got = pen.Penalty(u.Index(tpq.Pred{Kind: tpq.PredAD, X: 1, Y: 2}))
	if want := 1.0 / 3.0; !close(got, want) {
		t.Errorf("ad penalty = %f, want %f", got, want)
	}

	// π(contains(para)) = #contains(para,gold)/#contains(chapter,gold) =
	// 2/2 = 1 (every chapter containing gold has a para containing it).
	e := q.Nodes[2].Contains[0]
	got = pen.Penalty(u.Index(tpq.Pred{Kind: tpq.PredContains, X: 3, Expr: e}))
	if want := 1.0; !close(got, want) {
		t.Errorf("contains penalty = %f, want %f", got, want)
	}
}

func TestPenaltyZeroDenominator(t *testing.T) {
	_, st, ix := fixture(t)
	q := tpq.MustParse(`//book[./nosuch]`)
	u := tpq.NewUniverse(q)
	pen := NewPenalizer(st, ix, UniformWeights(), u)
	// Tags that never co-occur degrade to the full weight.
	if got := pen.Penalty(u.Index(tpq.Pred{Kind: tpq.PredPC, X: 1, Y: 2})); got != 1 {
		t.Errorf("degenerate pc penalty = %f, want 1", got)
	}
	// #nosuch = 0 makes the denominator 0, so the penalty degrades to the
	// full weight.
	if got := pen.Penalty(u.Index(tpq.Pred{Kind: tpq.PredAD, X: 1, Y: 2})); got != 1 {
		t.Errorf("degenerate ad penalty = %f, want 1", got)
	}
}

func TestPenaltiesInUnitInterval(t *testing.T) {
	_, st, ix := fixture(t)
	q := tpq.MustParse(`//book[./chapter[./para[.contains("gold")]] and ./title]`)
	u := tpq.NewUniverse(q)
	pen := NewPenalizer(st, ix, UniformWeights(), u)
	for _, p := range tpq.ClosureOf(q).List() {
		if p.Kind == tpq.PredTag || p.Kind == tpq.PredValue {
			continue
		}
		got := pen.Penalty(u.Index(p))
		if got < 0 || got > 1+1e-9 {
			t.Errorf("penalty(%s) = %f outside [0,1]", p.Key(), got)
		}
	}
}

func TestBaseScore(t *testing.T) {
	_, st, ix := fixture(t)
	q := tpq.MustParse(`//book[./chapter[./para] and .//title]`)
	u := tpq.NewUniverse(q)
	pen := NewPenalizer(st, ix, UniformWeights(), u)
	// Three edges, uniform weight 1.
	if got := pen.BaseScore(); got != 3 {
		t.Errorf("BaseScore = %f, want 3", got)
	}
	w := UniformWeights()
	w.Structural = 2
	pen = NewPenalizer(st, ix, w, u)
	if got := pen.BaseScore(); got != 6 {
		t.Errorf("BaseScore with weight 2 = %f, want 6", got)
	}
}

func TestPerPredWeightOverride(t *testing.T) {
	w := UniformWeights()
	p := tpq.Pred{Kind: tpq.PredPC, X: 1, Y: 2}
	w.PerPred = map[string]float64{p.Key(): 5}
	if got := w.Of(p); got != 5 {
		t.Errorf("override weight = %f", got)
	}
	if got := w.Of(tpq.Pred{Kind: tpq.PredPC, X: 1, Y: 3}); got != 1 {
		t.Errorf("non-overridden weight = %f", got)
	}
}

// TestOrderInvariance (Theorem 3): the score of an answer depends only on
// the multiset of satisfied predicates, never on relaxation order. We
// verify the contract directly: summing weights/penalties over a shuffled
// predicate multiset yields identical scores.
func TestOrderInvariance(t *testing.T) {
	_, st, ix := fixture(t)
	q := tpq.MustParse(`//book[./chapter[./para[.contains("gold")]] and ./title]`)
	u := tpq.NewUniverse(q)
	pen := NewPenalizer(st, ix, UniformWeights(), u)
	preds := tpq.ClosureOf(q).List()
	var droppable []tpq.Pred
	for _, p := range preds {
		if p.Kind == tpq.PredPC || p.Kind == tpq.PredAD || p.Kind == tpq.PredContains {
			droppable = append(droppable, p)
		}
	}
	score := func(order []int, k int) float64 {
		ss := pen.BaseScore()
		for _, i := range order[:k] {
			ss -= pen.Penalty(u.Index(droppable[i]))
		}
		return ss
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(len(droppable))
		orderA := r.Perm(len(droppable))[:k]
		// Same subset, different order.
		orderB := append([]int(nil), orderA...)
		r.Shuffle(len(orderB), func(i, j int) { orderB[i], orderB[j] = orderB[j], orderB[i] })
		return close(score(orderA, k), score(orderB, k))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
