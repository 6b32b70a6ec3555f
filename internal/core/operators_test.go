package core

import (
	"math/rand"
	"testing"

	"flexpath/internal/tpq"
)

const (
	srcQ1 = `//article[./section[./algorithm and ./paragraph[.contains("XML" and "streaming")]]]`
	srcQ2 = `//article[./section[./algorithm and ./paragraph and .contains("XML" and "streaming")]]`
	srcQ3 = `//article[.//algorithm and ./section[./paragraph[.contains("XML" and "streaming")]]]`
	srcQ4 = `//article[.//algorithm and ./section[./paragraph and .contains("XML" and "streaming")]]`
	srcQ5 = `//article[./section[./paragraph and .contains("XML" and "streaming")]]`
	srcQ6 = `//article[.contains("XML" and "streaming")]`
)

func nodeByTag(q *tpq.Query, tag string) int {
	for i := range q.Nodes {
		if q.Nodes[i].Tag == tag {
			return i
		}
	}
	return -1
}

// TestOperatorLadder reproduces the paper's Figure 1 derivations:
// κ(paragraph) turns Q1 into Q2; σ(algorithm) turns Q1 into Q3; applying
// both yields Q4; deleting algorithm from Q2 yields Q5; and repeated
// operators reach Q6.
func TestOperatorLadder(t *testing.T) {
	q1 := tpq.MustParse(srcQ1)

	q2, err := PromoteContains(q1, nodeByTag(q1, "paragraph"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Canon() != tpq.MustParse(srcQ2).Canon() {
		t.Errorf("κ(Q1) = %s, want Q2", q2)
	}

	q3, err := PromoteSubtree(q1, nodeByTag(q1, "algorithm"))
	if err != nil {
		t.Fatal(err)
	}
	if q3.Canon() != tpq.MustParse(srcQ3).Canon() {
		t.Errorf("σ(Q1) = %s, want Q3", q3)
	}

	q4, err := PromoteContains(q3, nodeByTag(q3, "paragraph"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if q4.Canon() != tpq.MustParse(srcQ4).Canon() {
		t.Errorf("κ(σ(Q1)) = %s, want Q4", q4)
	}

	q5, err := DeleteLeaf(q2, nodeByTag(q2, "algorithm"))
	if err != nil {
		t.Fatal(err)
	}
	if q5.Canon() != tpq.MustParse(srcQ5).Canon() {
		t.Errorf("λ(κ(Q1)) = %s, want Q5", q5)
	}

	// Q6: promote contains to the root and delete everything else.
	q6, err := PromoteContains(q5, nodeByTag(q5, "section"), 0)
	if err != nil {
		t.Fatal(err)
	}
	q6, err = DeleteLeaf(q6, nodeByTag(q6, "paragraph"))
	if err != nil {
		t.Fatal(err)
	}
	q6, err = DeleteLeaf(q6, nodeByTag(q6, "section"))
	if err != nil {
		t.Fatal(err)
	}
	if q6.Canon() != tpq.MustParse(srcQ6).Canon() {
		t.Errorf("relaxed to %s, want Q6", q6)
	}
}

func TestOperatorErrors(t *testing.T) {
	q := tpq.MustParse(srcQ1)
	if _, err := AxisGeneralize(q, 0); err == nil {
		t.Error("γ accepted the root")
	}
	if _, err := DeleteLeaf(q, 0); err == nil {
		t.Error("λ accepted the root")
	}
	if _, err := DeleteLeaf(q, nodeByTag(q, "section")); err == nil {
		t.Error("λ accepted a non-leaf")
	}
	if _, err := PromoteSubtree(q, nodeByTag(q, "section")); err == nil {
		t.Error("σ accepted a child of the root")
	}
	if _, err := PromoteContains(q, 0, 0); err == nil {
		t.Error("κ accepted the root")
	}
	if _, err := PromoteContains(q, nodeByTag(q, "algorithm"), 0); err == nil {
		t.Error("κ accepted a node without contains")
	}
	g, err := AxisGeneralize(q, nodeByTag(q, "section"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AxisGeneralize(g, nodeByTag(g, "section")); err == nil {
		t.Error("γ accepted an ad edge")
	}
}

// TestDeleteDistinguishedLeaf: λ on the distinguished node makes its
// parent distinguished.
func TestDeleteDistinguishedLeaf(t *testing.T) {
	q := tpq.MustParse(`//a/b/c`)
	if q.Nodes[q.Dist].Tag != "c" {
		t.Fatal("setup: distinguished should be c")
	}
	out, err := DeleteLeaf(q, q.Dist)
	if err != nil {
		t.Fatal(err)
	}
	if out.Nodes[out.Dist].Tag != "b" {
		t.Errorf("distinguished after λ = %s, want b", out.Nodes[out.Dist].Tag)
	}
}

// TestSoundness (Theorem 2, first half): every operator application
// yields a query that strictly contains the original.
func TestSoundness(t *testing.T) {
	queries := []string{srcQ1, srcQ2, srcQ3, srcQ4, srcQ5,
		`//item[./description/parlist and ./mailbox/mail/text]`,
		`//a/b[./c[.contains("gold")] and .//d]`,
	}
	for _, src := range queries {
		q := tpq.MustParse(src)
		for _, op := range ApplicableOps(q) {
			relaxed, err := op.Apply(q)
			if err != nil {
				t.Errorf("%s on %s: %v", op, src, err)
				continue
			}
			if err := relaxed.Validate(); err != nil {
				t.Errorf("%s on %s: invalid result: %v", op, src, err)
				continue
			}
			if !tpq.ContainedIn(q, relaxed) {
				t.Errorf("%s on %s: original not contained in relaxation", op, src)
			}
			// Deleting the distinguished node changes the answer tag, so
			// strictness holds trivially; for all others the relaxed
			// query must not be contained back.
			if tpq.ContainedIn(relaxed, q) {
				t.Errorf("%s on %s: relaxation is equivalent, not strict", op, src)
			}
		}
	}
}

// randomQuery draws a query of two to five variables over tags a to d.
func randomQuery(r *rand.Rand) *tpq.Query {
	tags := []string{"a", "b", "c", "d"}
	n := 2 + r.Intn(4)
	q := &tpq.Query{}
	for i := 0; i < n; i++ {
		node := tpq.Node{ID: i + 1, Tag: tags[r.Intn(len(tags))], Parent: -1}
		if i > 0 {
			node.Parent = r.Intn(i)
			if r.Intn(3) == 0 {
				node.Axis = tpq.Descendant
			}
		}
		q.Nodes = append(q.Nodes, node)
	}
	q.Dist = 0
	q.Normalize()
	return q
}

// TestPropertySoundnessRandom applies random operator sequences to random
// queries and checks containment is preserved transitively.
func TestPropertySoundnessRandom(t *testing.T) {
	for seed := int64(1); seed <= 120 && !t.Failed(); seed++ {
		operatorsSound(t, seed)
	}
}

func FuzzPropertySoundnessRandom(f *testing.F) { f.Fuzz(operatorsSound) }

// operatorsSound applies up to four random applicable operators to a
// random query, all drawn from seed: each step must relax the query.
func operatorsSound(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	orig := randomQuery(r)
	cur := orig
	for step := 0; step < 4; step++ {
		ops := ApplicableOps(cur)
		if len(ops) == 0 {
			break
		}
		next, err := ops[r.Intn(len(ops))].Apply(cur)
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, cur, err)
		}
		if !tpq.ContainedIn(orig, next) || !tpq.ContainedIn(cur, next) {
			t.Fatalf("seed %d: %s relaxed to %s, which does not contain it", seed, cur, next)
		}
		cur = next
	}
}

// TestEnumerateCoversFigure1 (completeness direction of Theorem 2 on the
// paper's example): the enumerated space of Q1 includes Q2..Q6.
func TestEnumerateCoversFigure1(t *testing.T) {
	space := EnumerateRelaxations(tpq.MustParse(srcQ1), -1)
	have := map[string]bool{}
	for _, r := range space {
		have[r.Query.Canon()] = true
	}
	for name, src := range map[string]string{
		"Q2": srcQ2, "Q3": srcQ3, "Q4": srcQ4, "Q5": srcQ5, "Q6": srcQ6,
	} {
		if !have[tpq.MustParse(src).Canon()] {
			t.Errorf("relaxation space of Q1 misses %s", name)
		}
	}
	// BFS order: the original comes first at depth 0.
	if space[0].Depth != 0 || space[0].Query.Canon() != tpq.MustParse(srcQ1).Canon() {
		t.Error("space does not start with the original query")
	}
	for i := 1; i < len(space); i++ {
		if space[i].Depth < space[i-1].Depth {
			t.Error("space not in BFS order")
			break
		}
		if len(space[i].Ops) != space[i].Depth {
			t.Errorf("ops length %d != depth %d", len(space[i].Ops), space[i].Depth)
		}
	}
}

// TestEnumerateDepthBound: depth-limited enumeration is a prefix of the
// full space.
func TestEnumerateDepthBound(t *testing.T) {
	q := tpq.MustParse(srcQ1)
	d1 := EnumerateRelaxations(q, 1)
	full := EnumerateRelaxations(q, -1)
	if len(d1) >= len(full) {
		t.Fatalf("depth-1 space (%d) not smaller than full (%d)", len(d1), len(full))
	}
	for i, r := range d1 {
		if r.Query.Canon() != full[i].Query.Canon() {
			t.Fatalf("depth-limited space diverges at %d", i)
		}
	}
}

// TestSpaceAllValid: every enumerated relaxation strictly contains the
// original and is a valid TPQ.
func TestSpaceAllValid(t *testing.T) {
	q := tpq.MustParse(srcQ1)
	for _, r := range EnumerateRelaxations(q, -1)[1:] {
		if err := r.Query.Validate(); err != nil {
			t.Errorf("invalid relaxation %s: %v", r.Query, err)
		}
		if !tpq.ContainedIn(q, r.Query) {
			t.Errorf("Q1 not contained in %s (ops %v)", r.Query, r.Ops)
		}
	}
}
