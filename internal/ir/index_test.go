package ir

import (
	"math/rand"
	"reflect"
	"testing"

	"flexpath/internal/xmltree"
)

const articleXML = `<collection>
  <article>
    <title>streaming XML queries</title>
    <section>
      <paragraph>we evaluate xml streams with stacks</paragraph>
      <paragraph>gold standard benchmarks</paragraph>
    </section>
  </article>
  <article>
    <title>relational engines</title>
    <section>
      <paragraph>sql over tables</paragraph>
      <note>xml appendix</note>
    </section>
  </article>
</collection>`

func mustDoc(t testing.TB, src string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

// naiveSatisfies is an independent, brute-force implementation of the
// context-satisfaction semantics, used as the oracle.
func naiveSatisfies(ix *Index, x xmltree.NodeID, e Expr) bool {
	doc := ix.doc
	switch t := e.(type) {
	case Term:
		for _, p := range ix.postings(t.Word) {
			if doc.Contains(x, p.node) {
				return true
			}
		}
		return false
	case And:
		for _, c := range t.Exprs {
			if !naiveSatisfies(ix, x, c) {
				return false
			}
		}
		return true
	case Or:
		for _, c := range t.Exprs {
			if naiveSatisfies(ix, x, c) {
				return true
			}
		}
		return false
	case Phrase:
		for _, p := range ix.postings(t.Words[0]) {
			if !doc.Contains(x, p.node) {
				continue
			}
			ok := true
			for off := 1; off < len(t.Words); off++ {
				if !hasPos(ix.postings(t.Words[off]), p.pos+int32(off)) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	case Near:
		for _, w := range t.Words {
			for _, p := range ix.postings(w) {
				if !doc.Contains(x, p.node) {
					continue
				}
				all := true
				for _, w2 := range t.Words {
					if w2 == w {
						continue
					}
					if !hasPosInRange(ix.postings(w2), p.pos-int32(t.Window), p.pos+int32(t.Window)) {
						all = false
						break
					}
				}
				if all {
					return true
				}
			}
		}
		return false
	case AndNot:
		// Exists a minimal pos-match within x whose subtree has no neg
		// match.
		for n := x; n <= doc.End(x); n++ {
			if !naiveSatisfies(ix, n, t.Pos) {
				continue
			}
			minimal := true
			for _, c := range doc.Children(n) {
				if naiveSatisfies(ix, c, t.Pos) {
					minimal = false
					break
				}
			}
			if minimal && !naiveSatisfies(ix, n, t.Neg) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

func TestSatisfiesAgainstNaive(t *testing.T) {
	doc := mustDoc(t, articleXML)
	ix := NewIndex(doc)
	exprs := []string{
		`xml`,
		`gold`,
		`missingword`,
		`xml and gold`,
		`xml and sql`,
		`xml or sql`,
		`"xml streams"`,
		`"streaming xml"`,
		`near(xml stacks, 6)`,
		`xml and not sql`,
		`sql and not xml`,
		`(xml or sql) and gold`,
	}
	for _, src := range exprs {
		e := MustParseExpr(src)
		r := ix.Eval(e)
		for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
			got := r.Satisfies(n)
			want := naiveSatisfies(ix, n, e)
			if got != want {
				t.Errorf("expr %q node %d (%s): Satisfies=%v naive=%v",
					src, n, doc.Path(n), got, want)
			}
		}
	}
}

func TestMostSpecificWitnesses(t *testing.T) {
	doc := mustDoc(t, articleXML)
	ix := NewIndex(doc)
	r := ix.Eval(MustParseExpr("xml"))
	// No witness may contain another witness.
	for i := 0; i < r.Len(); i++ {
		for j := 0; j < r.Len(); j++ {
			if i != j && doc.IsAncestor(r.Node(i), r.Node(j)) {
				t.Fatalf("witness %d contains witness %d", r.Node(i), r.Node(j))
			}
		}
	}
}

func TestScoresNormalized(t *testing.T) {
	doc := mustDoc(t, articleXML)
	ix := NewIndex(doc)
	for _, src := range []string{"xml", "xml and gold", `"xml streams"`, "xml or sql"} {
		r := ix.Eval(MustParseExpr(src))
		if r.Len() == 0 {
			t.Fatalf("%q: no witnesses", src)
		}
		maxScore := 0.0
		for i := 0; i < r.Len(); i++ {
			s := r.Score(i)
			if s < 0 || s > 1 {
				t.Errorf("%q: score %f out of [0,1]", src, s)
			}
			if s > maxScore {
				maxScore = s
			}
		}
		if maxScore != 1 {
			t.Errorf("%q: max score %f != 1", src, maxScore)
		}
	}
}

func TestScoreWithinMonotone(t *testing.T) {
	doc := mustDoc(t, articleXML)
	ix := NewIndex(doc)
	r := ix.Eval(MustParseExpr("xml and gold"))
	// An ancestor's context score is at least its descendant's.
	for n := xmltree.NodeID(1); int(n) < doc.Len(); n++ {
		p := doc.Parent(n)
		if r.ScoreWithin(p) < r.ScoreWithin(n) {
			t.Errorf("ScoreWithin(%d)=%f < child %d=%f", p, r.ScoreWithin(p), n, r.ScoreWithin(n))
		}
	}
}

func TestCountSatisfyingWithTag(t *testing.T) {
	doc := mustDoc(t, articleXML)
	ix := NewIndex(doc)
	e := MustParseExpr("xml")
	r := ix.Eval(e)
	if got := r.CountSatisfyingWithTag("article"); got != 2 {
		t.Errorf("articles containing xml = %d, want 2", got)
	}
	if got := r.CountSatisfyingWithTag("paragraph"); got != 1 {
		t.Errorf("paragraphs containing xml = %d, want 1", got)
	}
	if got := r.CountSatisfyingWithTag("nosuch"); got != 0 {
		t.Errorf("nosuch = %d", got)
	}
}

// TestEvalUncached: the index keeps no results. Each evaluation is a
// fresh Result with the same witnesses and scores.
func TestEvalUncached(t *testing.T) {
	doc := mustDoc(t, articleXML)
	ix := NewIndex(doc)
	r1 := ix.Eval(MustParseExpr("xml and gold"))
	r2 := ix.Eval(MustParseExpr("xml and gold"))
	if r1 == r2 {
		t.Fatal("identical expressions share one Result: the index caches")
	}
	if !reflect.DeepEqual(r1.nodes, r2.nodes) || !reflect.DeepEqual(r1.scores, r2.scores) {
		t.Errorf("re-evaluation differs: %v %v, then %v %v", r1.nodes, r1.scores, r2.nodes, r2.scores)
	}
}

// randomTextDoc builds a random document with text drawn from a small
// vocabulary, so conjunctions and phrases have interesting matches.
func randomTextDoc(r *rand.Rand) *xmltree.Document {
	words := []string{"alpha", "beta", "gamma", "delta", "omega"}
	b := xmltree.NewBuilder()
	var build func(depth int)
	build = func(depth int) {
		b.Open([]string{"r", "s", "t"}[r.Intn(3)])
		if r.Intn(3) > 0 {
			n := 1 + r.Intn(4)
			text := ""
			for i := 0; i < n; i++ {
				if i > 0 {
					text += " "
				}
				text += words[r.Intn(len(words))]
			}
			b.Text(text)
		}
		if depth < 4 {
			for i := 0; i < r.Intn(3); i++ {
				build(depth + 1)
			}
		}
		b.Close()
	}
	build(0)
	d, err := b.Document()
	if err != nil {
		panic(err)
	}
	return d
}

// satisfiesExprs cover every operator satisfiesMatchesNaive checks.
var satisfiesExprs = []Expr{
	MustParseExpr("alpha"),
	MustParseExpr("alpha and beta"),
	MustParseExpr("alpha and beta and gamma"),
	MustParseExpr("alpha or omega"),
	MustParseExpr(`"alpha beta"`),
	MustParseExpr("near(alpha gamma, 3)"),
	MustParseExpr("alpha and not beta"),
}

func TestPropertySatisfiesMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 60 && !t.Failed(); seed++ {
		satisfiesMatchesNaive(t, seed)
	}
}

func FuzzPropertySatisfiesMatchesNaive(f *testing.F) { f.Fuzz(satisfiesMatchesNaive) }

// satisfiesMatchesNaive holds Satisfies to naiveSatisfies for every
// satisfiesExprs expression on a random document drawn from seed.
func satisfiesMatchesNaive(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	doc := randomTextDoc(r)
	ix := NewIndex(doc)
	for _, e := range satisfiesExprs {
		res := ix.Eval(e)
		for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
			if res.Satisfies(n) != naiveSatisfies(ix, n, e) {
				t.Fatalf("seed %d: %s at node %d differs from the naive check", seed, e.Canon(), n)
			}
		}
	}
}

// upwardExprs are checked for upward closure, which the paper's
// contains inference rule requires: ad(x,y) ∧ contains(y,e) ⊢
// contains(x,e).
var upwardExprs = []Expr{
	MustParseExpr("alpha and beta"),
	MustParseExpr("alpha and not beta"),
	MustParseExpr(`"alpha beta"`),
}

func TestPropertyUpwardClosure(t *testing.T) {
	for seed := int64(1); seed <= 60 && !t.Failed(); seed++ {
		upwardClosed(t, seed)
	}
}

func FuzzPropertyUpwardClosure(f *testing.F) { f.Fuzz(upwardClosed) }

// upwardClosed checks every upwardExprs expression on a random document
// drawn from seed.
func upwardClosed(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	doc := randomTextDoc(r)
	ix := NewIndex(doc)
	for _, e := range upwardExprs {
		res := ix.Eval(e)
		for n := xmltree.NodeID(1); int(n) < doc.Len(); n++ {
			if res.Satisfies(n) && !res.Satisfies(doc.Parent(n)) {
				t.Fatalf("seed %d: %s holds at node %d but not at its parent", seed, e.Canon(), n)
			}
		}
	}
}

// TestCountSatisfyingWithTagMatchesScan: the memoised merge count equals
// the per-node Satisfies scan it replaced, on every tag.
func TestCountSatisfyingWithTagMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		doc := randomTextDoc(rand.New(rand.NewSource(seed)))
		ix := NewIndex(doc)
		for _, src := range []string{"alpha", "alpha and beta", "gamma or omega", `"alpha beta"`} {
			r := ix.Eval(MustParseExpr(src))
			for tag := xmltree.TagID(0); int(tag) < doc.NumTags(); tag++ {
				name := doc.TagNameOf(tag)
				want := 0
				for _, n := range doc.NodesWithTag(name) {
					if r.Satisfies(n) {
						want++
					}
				}
				for pass := 0; pass < 2; pass++ { // computed, then memoised
					if got := r.CountSatisfyingWithTag(name); got != want {
						t.Fatalf("seed %d %q tag %s pass %d: %d, scan says %d", seed, src, name, pass, got, want)
					}
				}
			}
		}
	}
}
