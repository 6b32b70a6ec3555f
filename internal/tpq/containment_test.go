package tpq

import (
	"math/rand"
	"testing"
)

// TestFigure1Lattice verifies the containment relationships the paper
// states for Figure 1: Q1 ⊂ Q2, Q1 ⊂ Q3, Q2 ⊂ Q4, Q3 ⊂ Q4, Q4 ⊂ Q5, and
// Q6 contains all of them.
func TestFigure1Lattice(t *testing.T) {
	q := map[string]*Query{
		"Q1": MustParse(srcQ1), "Q2": MustParse(srcQ2), "Q3": MustParse(srcQ3),
		"Q4": MustParse(srcQ4), "Q5": MustParse(srcQ5), "Q6": MustParse(srcQ6),
	}
	strict := [][2]string{
		{"Q1", "Q2"}, {"Q1", "Q3"}, {"Q2", "Q4"}, {"Q3", "Q4"}, {"Q4", "Q5"},
		{"Q1", "Q6"}, {"Q2", "Q6"}, {"Q3", "Q6"}, {"Q4", "Q6"}, {"Q5", "Q6"},
	}
	for _, pair := range strict {
		a, b := q[pair[0]], q[pair[1]]
		if !ContainedIn(a, b) {
			t.Errorf("%s should be contained in %s", pair[0], pair[1])
		}
		if ContainedIn(b, a) {
			t.Errorf("%s should NOT be contained in %s", pair[1], pair[0])
		}
	}
	// Q2 and Q3 are incomparable.
	if ContainedIn(q["Q2"], q["Q3"]) || ContainedIn(q["Q3"], q["Q2"]) {
		t.Error("Q2 and Q3 should be incomparable")
	}
}

func TestSelfContainment(t *testing.T) {
	for _, src := range []string{srcQ1, srcQ2, srcQ3, srcQ4, srcQ5, srcQ6} {
		qq := MustParse(src)
		if !ContainedIn(qq, qq) {
			t.Errorf("%s not contained in itself", src)
		}
		if !Equivalent(qq, qq.Clone()) {
			t.Errorf("%s not equivalent to its clone", src)
		}
	}
}

func TestContainmentAxis(t *testing.T) {
	pc := MustParse(`//a[./b]`)
	ad := MustParse(`//a[.//b]`)
	if !(ContainedIn(pc, ad) && !ContainedIn(ad, pc)) {
		t.Error("//a[./b] should be strictly contained in //a[.//b]")
	}
}

func TestContainmentDistinguished(t *testing.T) {
	// Same shape, different distinguished node: no containment.
	a := MustParse(`//a/b`)    // answers: b
	b := MustParse(`//a[./b]`) // answers: a
	if ContainedIn(a, b) || ContainedIn(b, a) {
		t.Error("queries with different distinguished tags must be incomparable")
	}
}

func TestContainmentContains(t *testing.T) {
	with := MustParse(`//a[./b[.contains("gold")]]`)
	promoted := MustParse(`//a[./b and .contains("gold")]`)
	without := MustParse(`//a[./b]`)
	if !(ContainedIn(with, promoted) && !ContainedIn(promoted, with)) {
		t.Error("contains promotion must strictly contain the original")
	}
	if !(ContainedIn(with, without) && !ContainedIn(without, with)) {
		t.Error("dropping contains must contain the original")
	}
	if ContainedIn(without, with) {
		t.Error("query without contains cannot be contained in one with it")
	}
}

func TestContainmentValuePreds(t *testing.T) {
	a := MustParse(`//a[@x = 1 and ./b]`)
	b := MustParse(`//a[./b]`)
	if !(ContainedIn(a, b) && !ContainedIn(b, a)) {
		t.Error("dropping a value predicate must relax")
	}
}

// randomQuery builds a small random TPQ over a tiny tag alphabet.
func randomQuery(r *rand.Rand) *Query {
	tags := []string{"a", "b", "c"}
	n := 2 + r.Intn(4)
	q := &Query{}
	for i := 0; i < n; i++ {
		node := Node{ID: i + 1, Tag: tags[r.Intn(len(tags))], Parent: -1}
		if i > 0 {
			node.Parent = r.Intn(i)
			if r.Intn(2) == 0 {
				node.Axis = Descendant
			}
		}
		q.Nodes = append(q.Nodes, node)
	}
	q.Dist = 0
	q.Normalize()
	return q
}

// TestPropertyContainmentReflexiveTransitive samples random query triples
// and checks reflexivity plus transitivity of the containment test.
func TestPropertyContainmentReflexiveTransitive(t *testing.T) {
	for seed := int64(1); seed <= 200 && !t.Failed(); seed++ {
		containmentReflexiveTransitive(t, seed)
	}
}

func FuzzPropertyContainmentReflexiveTransitive(f *testing.F) { f.Fuzz(containmentReflexiveTransitive) }

// containmentReflexiveTransitive checks ContainedIn on a random query
// triple drawn from seed.
func containmentReflexiveTransitive(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	a, b, c := randomQuery(r), randomQuery(r), randomQuery(r)
	if !ContainedIn(a, a) {
		t.Fatalf("seed %d: %s is not contained in itself", seed, a)
	}
	if ContainedIn(a, b) && ContainedIn(b, c) && !ContainedIn(a, c) {
		t.Fatalf("seed %d: %s ⊆ %s ⊆ %s, but not %s ⊆ %s", seed, a, b, c, a, c)
	}
}

// coreRandomOrder removes derivable predicates from the closure of s one
// at a time, in an order r draws, until none is left.
func coreRandomOrder(s *PredSet, r *rand.Rand) *PredSet {
	cur := Closure(s)
	for {
		preds := cur.List()
		r.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
		removed := false
		for _, p := range preds {
			if p.Kind != PredPC && p.Kind != PredAD && p.Kind != PredContains {
				continue
			}
			if Derivable(cur, p) {
				cur.Remove(p)
				removed = true
				break
			}
		}
		if !removed {
			return cur
		}
	}
}

// TestPropertyCoreUnique removes redundant predicates in random orders and
// checks the result is always the same set (Theorem 1).
func TestPropertyCoreUnique(t *testing.T) {
	for seed := int64(1); seed <= 60 && !t.Failed(); seed++ {
		coreUnique(t, seed)
	}
}

func FuzzPropertyCoreUnique(f *testing.F) { f.Fuzz(coreUnique) }

// coreUnique checks that every removal order reaches the core of a
// random query drawn from seed.
func coreUnique(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	q := randomQuery(r)
	want := CoreOf(q)
	for trial := 0; trial < 4; trial++ {
		got := coreRandomOrder(Logical(q), r)
		if !got.Equal(want) {
			t.Fatalf("seed %d: %s: a removal order reached %s, not the core %s", seed, q, got, want)
		}
	}
}

// TestPropertyClosureEquivalence: a query rebuilt from the core of its
// closure is equivalent to the original.
func TestPropertyClosureEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 120 && !t.Failed(); seed++ {
		closureEquivalence(t, seed)
	}
}

func FuzzPropertyClosureEquivalence(f *testing.F) { f.Fuzz(closureEquivalence) }

// closureEquivalence rebuilds a random query drawn from seed from its
// core and checks the two are equivalent.
func closureEquivalence(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	q := randomQuery(r)
	rebuilt, err := TreeFromPreds(CoreOf(q), q.Nodes[q.Dist].ID)
	if err != nil {
		t.Fatalf("seed %d: %s: %v", seed, q, err)
	}
	if !Equivalent(q, rebuilt) {
		t.Fatalf("seed %d: %s rebuilt from its core as %s", seed, q, rebuilt)
	}
}

// TestMinimize: node-level minimization prunes homomorphism-redundant
// branches (Flesca et al.); minimization preserves equivalence.
func TestMinimize(t *testing.T) {
	cases := []struct {
		src  string
		vars int
	}{
		{`//a[./b and .//b]`, 2},                // .//b implied by ./b
		{`//a[./b/c and ./b]`, 3},               // bare ./b implied by ./b/c
		{`//a[./b and ./c]`, 3},                 // nothing redundant
		{`//a[.//b[./c] and .//b]`, 3},          // second .//b implied
		{`//a[./b[.contains("x")] and ./b]`, 2}, // plain ./b implied by the constrained one
	}
	for _, c := range cases {
		q := MustParse(c.src)
		m, err := Minimize(q)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if m.Size() != c.vars {
			t.Errorf("%s minimized to %d vars, want %d: %s", c.src, m.Size(), c.vars, m)
		}
		if !Equivalent(q, m) {
			t.Errorf("%s: minimization changed semantics: %s", c.src, m)
		}
	}
}

// TestMinimizeKeepsDistinguished: branches containing the distinguished
// node are never pruned even when structurally redundant.
func TestMinimizeKeepsDistinguished(t *testing.T) {
	q := MustParse(`//a[.//b]/b`) // distinguished b; .//b branch is implied by /b
	m, err := Minimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes[m.Dist].Tag != "b" {
		t.Fatalf("distinguished lost: %s", m)
	}
	if !Equivalent(q, m) {
		t.Error("semantics changed")
	}
}

// TestPropertyMinimizeIdempotentAndEquivalent on random queries.
func TestPropertyMinimizeIdempotentAndEquivalent(t *testing.T) {
	for seed := int64(1); seed <= 80 && !t.Failed(); seed++ {
		minimizeIdempotentAndEquivalent(t, seed)
	}
}

func FuzzPropertyMinimizeIdempotentAndEquivalent(f *testing.F) {
	f.Fuzz(minimizeIdempotentAndEquivalent)
}

// minimizeIdempotentAndEquivalent minimizes a random query drawn from
// seed twice.
func minimizeIdempotentAndEquivalent(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	q := randomQuery(r)
	m, err := Minimize(q)
	if err != nil {
		t.Fatalf("seed %d: %s: %v", seed, q, err)
	}
	if !Equivalent(q, m) {
		t.Fatalf("seed %d: %s minimized to the inequivalent %s", seed, q, m)
	}
	if m2, err := Minimize(m); err != nil || m2.Size() != m.Size() || !Equivalent(m, m2) {
		t.Fatalf("seed %d: minimizing %s again gave %s, %v", seed, m, m2, err)
	}
}
