package exec

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"flexpath/internal/ir"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

func randomDoc(r *rand.Rand) *xmltree.Document {
	tags := []string{"a", "b", "c", "d"}
	words := []string{"alpha", "beta", "gamma"}
	b := xmltree.NewBuilder()
	var build func(depth int)
	build = func(depth int) {
		b.Open(tags[r.Intn(len(tags))], xmltree.Attr{Name: "v", Value: string(rune('0' + r.Intn(5)))})
		if r.Intn(2) == 0 {
			b.Text(words[r.Intn(len(words))])
		}
		if depth < 5 {
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

func randomSortedNodes(r *rand.Rand, d *xmltree.Document) []xmltree.NodeID {
	var out []xmltree.NodeID
	for n := xmltree.NodeID(0); int(n) < d.Len(); n++ {
		if r.Intn(2) == 0 {
			out = append(out, n)
		}
	}
	return out
}

func TestPropertySemiJoins(t *testing.T) {
	for seed := int64(1); seed <= 120 && !t.Failed(); seed++ {
		semiJoinsMatchNaive(t, seed)
	}
}

func FuzzPropertySemiJoins(f *testing.F) { f.Fuzz(semiJoinsMatchNaive) }

// semiJoinsMatchNaive holds the four semijoins to a naive scan on a
// random document and node lists drawn from seed.
func semiJoinsMatchNaive(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	d := randomDoc(r)
	outer := randomSortedNodes(r, d)
	inner := randomSortedNodes(r, d)

	check := func(got []xmltree.NodeID, keep func(a xmltree.NodeID) bool) bool {
		var want []xmltree.NodeID
		for _, a := range outer {
			if keep(a) {
				want = append(want, a)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	ok := check(SemiJoinHasDescendant(d, outer, inner), func(a xmltree.NodeID) bool {
		for _, x := range inner {
			if d.IsAncestor(a, x) {
				return true
			}
		}
		return false
	})
	ok = ok && check(SemiJoinHasChild(d, outer, inner), func(a xmltree.NodeID) bool {
		for _, x := range inner {
			if d.Parent(x) == a {
				return true
			}
		}
		return false
	})
	ok = ok && check(SemiJoinDescendantOf(d, outer, inner), func(a xmltree.NodeID) bool {
		for _, x := range inner {
			if d.IsAncestor(x, a) {
				return true
			}
		}
		return false
	})
	ok = ok && check(SemiJoinChildOf(d, outer, inner), func(a xmltree.NodeID) bool {
		for _, x := range inner {
			if d.Parent(a) == x {
				return true
			}
		}
		return false
	})
	if !ok {
		t.Fatalf("seed %d: a semijoin differs from the naive scan", seed)
	}
}

func TestDescendantsInRange(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := randomDoc(r)
	all := make([]xmltree.NodeID, d.Len())
	for i := range all {
		all[i] = xmltree.NodeID(i)
	}
	for n := xmltree.NodeID(0); int(n) < d.Len(); n++ {
		lo, hi := descendantsFrom(d, all, n, 0)
		got := all[lo:hi]
		var want []xmltree.NodeID
		for _, m := range all {
			if d.IsAncestor(n, m) {
				want = append(want, m)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("node %d: got %d descendants, want %d", n, len(got), len(want))
		}
	}
}

// naiveMatches enumerates all matches of q in d by brute force and
// returns the distinct distinguished-node bindings.
func naiveMatches(d *xmltree.Document, ix *ir.Index, q *tpq.Query) []xmltree.NodeID {
	results := map[xmltree.NodeID]bool{}
	bind := make([]xmltree.NodeID, len(q.Nodes))
	var rec func(i int) // assign query node i
	rec = func(i int) {
		if i == len(q.Nodes) {
			results[bind[q.Dist]] = true
			return
		}
		qn := &q.Nodes[i]
		for n := xmltree.NodeID(0); int(n) < d.Len(); n++ {
			if d.TagName(n) != qn.Tag {
				continue
			}
			if qn.Parent != -1 {
				p := bind[qn.Parent]
				if qn.Axis == tpq.Child {
					if d.Parent(n) != p {
						continue
					}
				} else if !d.IsAncestor(p, n) {
					continue
				}
			}
			okLocal := true
			for _, v := range qn.Values {
				if !EvalValuePred(d, n, v) {
					okLocal = false
					break
				}
			}
			for _, e := range qn.Contains {
				if !ix.Eval(e).Satisfies(n) {
					okLocal = false
					break
				}
			}
			if !okLocal {
				continue
			}
			bind[i] = n
			rec(i + 1)
		}
	}
	rec(0)
	out := make([]xmltree.NodeID, 0, len(results))
	for n := range results {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var testQueries = []string{
	`//a[./b]`,
	`//a[.//b]`,
	`//a[./b and ./c]`,
	`//a[./b[./c]]`,
	`//a[.//b[./c and .//d]]`,
	`//a/b/c`,
	`//a[./b and .contains("alpha")]`,
	`//a[./b[.contains("alpha" and "beta")]]`,
	`//a[@v = 1]`,
	`//a[@v < 3 and ./b]`,
	`//a[./b = "alpha"]`,
	`//a[. = "gamma"]`,
	`//a[./b/c < "beta"]`,
}

func TestPropertyEvaluateMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 60 && !t.Failed(); seed++ {
		evaluateMatchesNaive(t, seed)
	}
}

func FuzzPropertyEvaluateMatchesNaive(f *testing.F) { f.Fuzz(evaluateMatchesNaive) }

// evaluateMatchesNaive holds the evaluator to naiveMatches for every
// test query on a random document drawn from seed.
func evaluateMatchesNaive(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	d := randomDoc(r)
	ix := ir.NewIndex(d)
	ev := NewEvaluator(d, ix)
	for _, src := range testQueries {
		q := tpq.MustParse(src)
		got := ev.Evaluate(q)
		want := naiveMatches(d, ix, q)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: %s: evaluator %v, naive %v", seed, src, got, want)
		}
	}
}

func TestEvaluateFullConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := randomDoc(r)
	ix := ir.NewIndex(d)
	ev := NewEvaluator(d, ix)
	q := tpq.MustParse(`//a[./b and .//c]`)
	full := ev.EvaluateFull(q)
	if full == nil {
		t.Skip("no matches in this random doc")
	}
	// Every node in every list participates in some full match: verify
	// via the naive matcher per query variable.
	for qi := range q.Nodes {
		seen := map[xmltree.NodeID]bool{}
		var bind = make([]xmltree.NodeID, len(q.Nodes))
		var rec func(i int)
		rec = func(i int) {
			if i == len(q.Nodes) {
				seen[bind[qi]] = true
				return
			}
			qn := &q.Nodes[i]
			for n := xmltree.NodeID(0); int(n) < d.Len(); n++ {
				if d.TagName(n) != qn.Tag {
					continue
				}
				if qn.Parent != -1 {
					p := bind[qn.Parent]
					if qn.Axis == tpq.Child && d.Parent(n) != p {
						continue
					}
					if qn.Axis == tpq.Descendant && !d.IsAncestor(p, n) {
						continue
					}
				}
				bind[i] = n
				rec(i + 1)
			}
		}
		rec(0)
		if len(full[qi]) != len(seen) {
			t.Errorf("var %d: EvaluateFull has %d nodes, naive %d", qi, len(full[qi]), len(seen))
		}
		for _, n := range full[qi] {
			if !seen[n] {
				t.Errorf("var %d: node %d not part of any match", qi, n)
			}
		}
	}
}

func TestEvalValuePred(t *testing.T) {
	d, err := xmltree.ParseString(`<a price="10" name="abc"><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pred tpq.ValuePred
		want bool
	}{
		{tpq.ValuePred{Attr: "price", Op: tpq.OpEq, Value: "10"}, true},
		{tpq.ValuePred{Attr: "price", Op: tpq.OpEq, Value: "10.0"}, true}, // numeric compare
		{tpq.ValuePred{Attr: "price", Op: tpq.OpLt, Value: "9"}, false},
		{tpq.ValuePred{Attr: "price", Op: tpq.OpLt, Value: "11"}, true},
		{tpq.ValuePred{Attr: "price", Op: tpq.OpGe, Value: "10"}, true},
		{tpq.ValuePred{Attr: "price", Op: tpq.OpNe, Value: "3"}, true},
		{tpq.ValuePred{Attr: "name", Op: tpq.OpEq, Value: "abc"}, true},
		{tpq.ValuePred{Attr: "name", Op: tpq.OpLt, Value: "abd"}, true}, // lexicographic
		{tpq.ValuePred{Attr: "missing", Op: tpq.OpEq, Value: "x"}, false},
	}
	for _, c := range cases {
		if got := EvalValuePred(d, 0, c.pred); got != c.want {
			t.Errorf("%+v = %v, want %v", c.pred, got, c.want)
		}
	}
}
