package ir

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"flexpath/internal/xmltree"
)

// evalWords are the index terms of randomEvalDoc's text, plus one that no
// document holds.
var evalWords = func() []string {
	var out []string
	for _, w := range []string{"alpha", "beta", "gamma", "delta", "omega", "zeta"} {
		out = append(out, Tokenize(w)[0])
	}
	return out
}()

// randomEvalDoc builds a random document over evalWords, deeper and wider
// than randomTextDoc so that witness lists are long enough to gallop, with
// text before and after child elements.
func randomEvalDoc(r *rand.Rand) *xmltree.Document {
	b := xmltree.NewBuilder()
	maxDepth, fan := 2+r.Intn(5), 1+r.Intn(4)
	text := func() {
		if r.Intn(3) == 0 {
			return
		}
		s := ""
		for i := 0; i < 1+r.Intn(6); i++ {
			s += " " + evalWords[r.Intn(len(evalWords)-1)]
		}
		b.Text(s)
	}
	var build func(depth int)
	build = func(depth int) {
		b.Open([]string{"r", "s", "t"}[r.Intn(3)])
		text()
		if depth < maxDepth {
			for i := 0; i < r.Intn(fan+1); i++ {
				build(depth + 1)
			}
			if r.Intn(4) == 0 {
				text()
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

// randomExpr draws an expression over all six operators, nested at most
// depth levels below the root.
func randomExpr(r *rand.Rand, depth int) Expr {
	word := func() string { return evalWords[r.Intn(len(evalWords))] }
	words := func() []string {
		ws := make([]string, 2+r.Intn(2))
		for i := range ws {
			ws[i] = word()
		}
		return ws
	}
	subs := func() []Expr {
		es := make([]Expr, 2+r.Intn(2))
		for i := range es {
			es[i] = randomExpr(r, depth-1)
		}
		return es
	}
	op := r.Intn(6)
	if depth == 0 {
		op = r.Intn(3)
	}
	switch op {
	case 0:
		return Term{Word: word()}
	case 1:
		return Phrase{Words: words()}
	case 2:
		return Near{Words: words(), Window: r.Intn(8)}
	case 3:
		return And{Exprs: subs()}
	case 4:
		return Or{Exprs: subs()}
	default:
		return AndNot{Pos: randomExpr(r, depth-1), Neg: randomExpr(r, depth-1)}
	}
}

// checkEvalMatchesOracle holds Eval to the pre-merge evaluator: the same
// witnesses, and scores equal to the last bit.
func checkEvalMatchesOracle(t *testing.T, ix *Index, e Expr) {
	t.Helper()
	res := ix.Eval(e)
	nodes, scores := ix.oracleEval(e)
	if res.Len() != len(nodes) {
		t.Fatalf("%s: %d witnesses %v, oracle %d %v", e.Canon(), res.Len(), res.nodes, len(nodes), nodes)
	}
	for i := range nodes {
		if res.Node(i) != nodes[i] || math.Float64bits(res.Score(i)) != math.Float64bits(scores[i]) {
			t.Fatalf("%s: witness %d is (%d, %v), oracle (%d, %v)", e.Canon(), i, res.Node(i), res.Score(i), nodes[i], scores[i])
		}
	}
}

func TestEvalMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	// The first document is a corner the random ones rarely reach: in
	// "alpha and beta", <b>'s two neighbours in beta's list meet it at
	// one LCA, <t>, with different scores, and the higher must win.
	docs := []*xmltree.Document{mustDoc(t, `<root><t><a>beta beta beta</a><b>alpha</b><c>beta</c></t>`+
		`<u><d>alpha</d><e>beta</e></u></root>`)}
	for len(docs) < 200 {
		docs = append(docs, randomEvalDoc(r))
	}
	for _, doc := range docs {
		exprs := []Expr{And{Exprs: []Expr{Term{Word: evalWords[0]}, Term{Word: evalWords[1]}}}}
		for len(exprs) < 12 {
			exprs = append(exprs, randomExpr(r, 3))
		}
		for _, scoring := range []Scoring{ScoringTFIDF, ScoringBM25} {
			ix := NewIndexOptions(doc, IndexOptions{Scoring: scoring})
			for _, e := range exprs {
				checkEvalMatchesOracle(t, ix, e)
			}
		}
	}
}

// FuzzEvalMatchesOracle: any parseable expression over any generated
// document evaluates like the oracle. Windows the oracle's int32
// conversion cannot hold are left to TestNearOversizedWindow.
func FuzzEvalMatchesOracle(f *testing.F) {
	for _, seed := range []struct {
		doc  int64
		expr string
	}{
		{1, `alpha`}, {2, `alpha or beta`}, {3, `alpha and beta`},
		{4, `"alpha beta"`}, {5, `near(alpha gamma delta, 3)`},
		{6, `alpha and not beta`}, {7, `(alpha or omega) and (beta or gamma)`},
		{8, `near(alpha alpha beta, 2) or "gamma delta"`},
		{9, `(alpha and beta and gamma) and not (delta or "omega alpha")`},
		{10, `zeta or alpha`},
	} {
		f.Add(seed.doc, seed.expr)
	}
	f.Fuzz(func(t *testing.T, seed int64, src string) {
		e, err := ParseExpr(src)
		if err != nil || maxWindow(e) > math.MaxInt32/2 {
			return
		}
		doc := randomEvalDoc(rand.New(rand.NewSource(seed)))
		for _, scoring := range []Scoring{ScoringTFIDF, ScoringBM25} {
			checkEvalMatchesOracle(t, NewIndexOptions(doc, IndexOptions{Scoring: scoring}), e)
		}
	})
}

// maxWindow returns the widest near window in e.
func maxWindow(e Expr) int {
	switch t := e.(type) {
	case Near:
		return t.Window
	case And:
		return maxWindowOf(t.Exprs)
	case Or:
		return maxWindowOf(t.Exprs)
	case AndNot:
		return max(maxWindow(t.Pos), maxWindow(t.Neg))
	}
	return 0
}

func maxWindowOf(es []Expr) int {
	w := 0
	for _, e := range es {
		w = max(w, maxWindow(e))
	}
	return w
}

// A near window wider than the document matches everything a narrower
// one does. The window used to be converted with int32(window), so
// 4294967296 wrapped to 0 and matched nothing, and a window close to
// MaxInt32 overflowed pos+window.
func TestNearOversizedWindow(t *testing.T) {
	ix := NewIndex(mustDoc(t, `<doc><p>alpha beta gamma delta</p></doc>`))
	want := ix.Eval(MustParseExpr(`near(alpha delta, 5)`))
	if want.Len() != 1 || ix.doc.TagName(want.Node(0)) != "p" {
		t.Fatalf("near(alpha delta, 5) has %d witnesses, want the <p>", want.Len())
	}
	if got := ix.Eval(MustParseExpr(`near(alpha delta, 2)`)); got.Len() != 0 {
		t.Fatalf("near(alpha delta, 2) has %d witnesses, want none", got.Len())
	}
	for _, window := range []int{4294967296, math.MaxInt32, math.MaxInt32 - 1, math.MaxInt} {
		src := "near(alpha delta, " + strconv.Itoa(window) + ")"
		got := ix.Eval(MustParseExpr(src))
		if got.Len() < want.Len() {
			t.Fatalf("%s: %d witnesses, fewer than window 5's %d", src, got.Len(), want.Len())
		}
		for _, n := range want.nodes {
			if !got.Satisfies(n) {
				t.Errorf("%s: does not match <%s>, which window 5 matches", src, ix.doc.TagName(n))
			}
		}
	}
}

// TestEvalAllocs pins the allocations of one evaluation of an Or of two
// ordinary terms: the Result and its two columns, sized to the witnesses.
// The term lists, their merge and the operand slice are built in pooled
// scratch, so a grown append, a reflective sort or a returned scratch
// buffer that has to be replaced fails here (the sort-based evaluator made
// 66, the merge evaluator with a result cache 21).
func TestEvalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	_, ix := benchIndex(t)
	e := MustParseExpr(`gold or silver`)
	ix.Eval(e)
	got := testing.AllocsPerRun(50, func() {
		ix.Eval(e)
	})
	const ceiling = 3
	if got > ceiling {
		t.Errorf("Eval(%s) = %v allocs, want at most %d", e.Canon(), got, ceiling)
	}
}
