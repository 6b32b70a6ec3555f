package rank

import (
	"math/rand"
	"testing"

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

// fullText evaluates each expression class of u, indexed by class, as a
// relaxation chain does for its penalizer.
func fullText(ix *ir.Index, u *tpq.Universe) []*ir.Result {
	var ft []*ir.Result
	for i := 0; i < u.Len(); i++ {
		if u.Pred(i).Kind == tpq.PredContains {
			ft = append(ft, make([]*ir.Result, max(0, u.Class(i)+1-len(ft)))...)
			if ft[u.Class(i)] == nil {
				ft[u.Class(i)] = ix.Eval(u.Pred(i).Expr)
			}
		}
	}
	return ft
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
	pen := NewPenalizer(st, fullText(ix, u), UniformWeights(), u)

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
	pen := NewPenalizer(st, fullText(ix, u), UniformWeights(), u)
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
	pen := NewPenalizer(st, fullText(ix, u), UniformWeights(), u)
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
	pen := NewPenalizer(st, fullText(ix, u), UniformWeights(), u)
	// Three edges, uniform weight 1.
	if got := pen.BaseScore(); got != 3 {
		t.Errorf("BaseScore = %f, want 3", got)
	}
	w := UniformWeights()
	w.Structural = 2
	pen = NewPenalizer(st, fullText(ix, u), w, u)
	if got := pen.BaseScore(); got != 6 {
		t.Errorf("BaseScore with weight 2 = %f, want 6", got)
	}
}

// TestPerPredWeightOverride: a PerPred weight replaces its predicate's
// weight in the penalizer, and only that one: on TestBaseScore's query,
// the book/chapter edge weighted 5 beside two unit edges gives 7.
func TestPerPredWeightOverride(t *testing.T) {
	_, st, ix := fixture(t)
	q := tpq.MustParse(`//book[./chapter[./para] and .//title]`)
	u := tpq.NewUniverse(q)
	w := UniformWeights()
	w.PerPred = map[string]float64{tpq.Pred{Kind: tpq.PredPC, X: 1, Y: 2}.Key(): 5}
	if got := NewPenalizer(st, fullText(ix, u), w, u).BaseScore(); got != 7 {
		t.Errorf("BaseScore with one edge weighted 5 = %f, want 7", got)
	}
}

// TestOrderInvariance (Theorem 3): the score of an answer depends only on
// the multiset of satisfied predicates, never on relaxation order. We
// verify the contract directly: summing weights/penalties over a shuffled
// predicate multiset yields identical scores.
func TestOrderInvariance(t *testing.T) {
	n, score := dropScorer(t)
	for seed := int64(1); seed <= 200 && !t.Failed(); seed++ {
		orderInvariant(t, n, score, seed)
	}
}

func FuzzOrderInvariance(f *testing.F) {
	n, score := dropScorer(f)
	f.Fuzz(func(t *testing.T, seed int64) { orderInvariant(t, n, score, seed) })
}

// dropScorer returns the number of droppable predicates of a query over
// the fixture, and the score left after dropping some of them in order.
func dropScorer(t testing.TB) (int, func(order []int) float64) {
	_, st, ix := fixture(t)
	q := tpq.MustParse(`//book[./chapter[./para[.contains("gold")]] and ./title]`)
	u := tpq.NewUniverse(q)
	pen := NewPenalizer(st, fullText(ix, u), UniformWeights(), u)
	var droppable []tpq.Pred
	for _, p := range tpq.ClosureOf(q).List() {
		if p.Kind == tpq.PredPC || p.Kind == tpq.PredAD || p.Kind == tpq.PredContains {
			droppable = append(droppable, p)
		}
	}
	return len(droppable), func(order []int) float64 {
		ss := pen.BaseScore()
		for _, i := range order {
			ss -= pen.Penalty(u.Index(droppable[i]))
		}
		return ss
	}
}

// orderInvariant drops a subset of the n predicates, drawn from seed, in
// two orders.
func orderInvariant(t *testing.T, n int, score func([]int) float64, seed int64) {
	r := rand.New(rand.NewSource(seed))
	k := 1 + r.Intn(n)
	orderA := r.Perm(n)[:k]
	// Same subset, different order.
	orderB := append([]int(nil), orderA...)
	r.Shuffle(len(orderB), func(i, j int) { orderB[i], orderB[j] = orderB[j], orderB[i] })
	if a, b := score(orderA), score(orderB); !close(a, b) {
		t.Fatalf("seed %d: dropping %v scores %v, in the order %v %v", seed, orderA, a, orderB, b)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
