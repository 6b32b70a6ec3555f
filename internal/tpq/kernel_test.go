package tpq

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"flexpath/internal/ir"
)

// randomTPQ builds a random tree pattern query of 2-8 nodes with mixed
// axes, 0-2 contains predicates (sometimes the same expression on two
// nodes, so closures merge classes), value predicates and a random
// distinguished node. IDs are deliberately not dense and cross a decimal
// boundary, so "$10" < "$2" key ordering is exercised.
func randomTPQ(r *rand.Rand) *Query {
	tags := []string{"a", "b", "c", "d"}
	exprs := []ir.Expr{
		ir.MustParseExpr(`"gold"`),
		ir.MustParseExpr(`"xml" and "streaming"`),
		ir.MustParseExpr(`"rare" or "mint"`),
	}
	n := 2 + r.Intn(7)
	ids := r.Perm(14)[:n]
	q := &Query{}
	for i := 0; i < n; i++ {
		node := Node{ID: ids[i] + 1, Tag: tags[r.Intn(len(tags))], Parent: -1}
		if i > 0 {
			node.Parent = r.Intn(i)
			if r.Intn(2) == 0 {
				node.Axis = Descendant
			}
		}
		if r.Intn(5) == 0 {
			node.Values = append(node.Values, ValuePred{Attr: "x", Op: CmpOp(r.Intn(6)), Value: fmt.Sprint(r.Intn(3))})
		}
		q.Nodes = append(q.Nodes, node)
	}
	for c := r.Intn(3); c > 0; c-- {
		at := r.Intn(n)
		q.Nodes[at].Contains = append(q.Nodes[at].Contains, exprs[r.Intn(len(exprs))])
	}
	q.Dist = r.Intn(n)
	q.Normalize()
	return q
}

func keysOf(s *PredSet) []string {
	var out []string
	for _, p := range s.List() {
		out = append(out, p.Key())
	}
	return out
}

func bitKeys(u *Universe, b Bits) []string {
	var out []string
	for i := b.Next(0); i >= 0; i = b.Next(i + 1) {
		out = append(out, u.Key(i))
	}
	return out
}

// checkSet holds the kernel to the oracle on one predicate set: closure,
// core (hence its removal order), derivability of every member, and the
// tree rebuilt from the core.
func checkSet(t *testing.T, u *Universe, set Bits, ps *PredSet, distID int, what string) {
	t.Helper()
	if got, want := bitKeys(u, set), keysOf(ps); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: bitset %v, map set %v", what, got, want)
	}
	scratch, work := u.NewBits(), u.NewBits()

	work.Copy(set)
	u.Close(work)
	if got, want := bitKeys(u, work), keysOf(oracleClosure(ps)); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: closure\n got %v\nwant %v", what, got, want)
	}
	for i := set.Next(0); i >= 0; i = set.Next(i + 1) {
		if got, want := u.Derivable(set, i, scratch), oracleDerivable(ps, u.Pred(i)); got != want {
			t.Fatalf("%s: derivable(%s) = %v, oracle %v", what, u.Key(i), got, want)
		}
	}
	work.Copy(set)
	u.Core(work, scratch)
	oc := oracleCore(ps)
	if got, want := bitKeys(u, work), keysOf(oc); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: core\n got %v\nwant %v", what, got, want)
	}
	gq, gerr := u.Tree(work, distID)
	wq, werr := oracleTreeFromPreds(oc, distID)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: tree error %v, oracle %v", what, gerr, werr)
	}
	if gerr == nil && !reflect.DeepEqual(gq, wq) {
		t.Fatalf("%s: tree\n got %s %+v\nwant %s %+v", what, gq.Canon(), gq, wq.Canon(), wq)
	}
}

// walkChain drops predicates the way core.BuildChainH does — cheapest
// droppable non-derivable predicate first, orphaned variables' predicates
// with it, the step valid only when the core is a tree — under made-up
// penalties, on the map-based sets with the oracle, and checks the kernel
// on every set it visits: the current set of each step and the tentative
// set of each candidate. It stops after maxSets sets (0: at the end of the
// chain) and returns the number of sets checked.
func walkChain(t *testing.T, r *rand.Rand, q *Query, maxSets int) int {
	u := NewUniverse(q)
	closure := oracleClosureOf(q)
	if got, want := bitKeys(u, u.All()), keysOf(closure); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: universe\n got %v\nwant %v", q, got, want)
	}
	if got, want := bitKeys(u, u.Logical()), keysOf(Logical(q)); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: logical\n got %v\nwant %v", q, got, want)
	}
	for i := 0; i < u.Len(); i++ {
		if u.Key(i) != u.Pred(i).Key() || u.Index(u.Pred(i)) != i {
			t.Fatalf("%s: index %d: key %q, pred %q, Index %d", q, i, u.Key(i), u.Pred(i).Key(), u.Index(u.Pred(i)))
		}
	}
	if !sort.StringsAreSorted(bitKeys(u, u.All())) {
		t.Fatalf("%s: universe not in key order", q)
	}

	rootID := q.Nodes[0].ID
	penalty := map[string]float64{}
	for _, p := range closure.List() {
		// Few distinct values, so ties are broken by key often.
		penalty[p.Key()] = float64(r.Intn(4))
	}
	droppable := func(p Pred) bool {
		return p.Kind == PredPC || p.Kind == PredAD || (p.Kind == PredContains && p.X != rootID)
	}
	hasEdge := func(s *PredSet, v int, into bool) bool {
		for _, p := range s.List() {
			if (p.Kind == PredPC || p.Kind == PredAD) && ((into && p.Y == v) || (!into && p.X == v)) {
				return true
			}
		}
		return false
	}

	cur, curBits := closure.Clone(), u.All()
	curQuery, distID := q.Clone(), q.Nodes[q.Dist].ID
	checked := 0
	for {
		checkSet(t, u, curBits, cur, distID, fmt.Sprintf("%s step set", q))
		checked++
		var cands []Pred
		for _, p := range cur.List() {
			if droppable(p) {
				cands = append(cands, p)
			}
		}
		sort.SliceStable(cands, func(i, j int) bool { return penalty[cands[i].Key()] < penalty[cands[j].Key()] })
		stepped := false
		for _, p := range cands {
			if oracleDerivable(cur, p) {
				continue
			}
			tentative := cur.Minus(p)
			newDist := distID
			if p.Kind != PredContains && !hasEdge(tentative, p.Y, true) {
				if hasEdge(tentative, p.Y, false) {
					continue
				}
				for _, a := range tentative.List() {
					if a.Kind != PredPC && a.Kind != PredAD && a.X == p.Y {
						tentative.Remove(a)
					}
				}
				if p.Y == distID {
					i := curQuery.NodeByID(p.Y)
					if i <= 0 {
						continue
					}
					newDist = curQuery.Nodes[curQuery.Nodes[i].Parent].ID
				}
			}
			tb := u.NewBits()
			for _, a := range tentative.List() {
				tb.Set(u.Index(a)) // panics if the set left the universe
			}
			checkSet(t, u, tb, tentative, newDist, fmt.Sprintf("%s minus %s", q, p.Key()))
			checked++
			relaxed, err := oracleTreeFromPreds(oracleCore(tentative), newDist)
			if err != nil {
				continue
			}
			cur, curBits, curQuery, distID = tentative, tb, relaxed, newDist
			stepped = true
			break
		}
		if !stepped || (maxSets > 0 && checked >= maxSets) {
			return checked
		}
	}
}

// TestKernelMatchesOracleAlongChains is the differential suite: every
// predicate set visited along the relaxation chains of random queries.
func TestKernelMatchesOracleAlongChains(t *testing.T) {
	queries := 500
	if testing.Short() {
		queries = 60
	}
	r := rand.New(rand.NewSource(17))
	sets := 0
	for i := 0; i < queries; i++ {
		sets += walkChain(t, r, randomTPQ(r), 0)
	}
	t.Logf("%d queries, %d predicate sets", queries, sets)
}

// TestKernelMatchesOracleOnSubsets checks arbitrary subsets of a query's
// closure — sets no chain would visit, with variables cut off from the
// root and several parents per variable.
func TestKernelMatchesOracleOnSubsets(t *testing.T) {
	for seed := int64(1); seed <= 300 && !t.Failed(); seed++ {
		kernelMatchesOracleOnSubset(t, seed)
	}
}

func FuzzKernelMatchesOracleOnSubsets(f *testing.F) { f.Fuzz(kernelMatchesOracleOnSubset) }

// kernelMatchesOracleOnSubset checks a random subset of the closure of
// a random query, both drawn from seed.
func kernelMatchesOracleOnSubset(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	q := randomTPQ(r)
	u := NewUniverse(q)
	set, ps := u.NewBits(), NewPredSet()
	for i := 0; i < u.Len(); i++ {
		if r.Intn(3) > 0 {
			set.Set(i)
			ps.Add(u.Pred(i))
		}
	}
	checkSet(t, u, set, ps, q.Nodes[q.Dist].ID, fmt.Sprintf("%s subset (seed %d)", q, seed))
}

// TestWrappersMatchOracleOnArbitrarySets feeds Closure, Core, Derivable
// and TreeFromPreds predicate sets that come from no query at all:
// cycles, self-loops, two tags on a variable, duplicate expressions.
func TestWrappersMatchOracleOnArbitrarySets(t *testing.T) {
	for seed := int64(1); seed <= 2000 && !t.Failed(); seed++ {
		wrappersMatchOracle(t, seed)
	}
}

func FuzzWrappersMatchOracleOnArbitrarySets(f *testing.F) { f.Fuzz(wrappersMatchOracle) }

// arbitraryExprs are the contains expressions of arbitrary sets.
var arbitraryExprs = []ir.Expr{ir.MustParseExpr(`"gold"`), ir.MustParseExpr(`"xml" and "query"`)}

// wrappersMatchOracle checks the wrappers on a predicate set drawn from
// seed.
func wrappersMatchOracle(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	s := NewPredSet()
	nv := 1 + r.Intn(5)
	for n := r.Intn(12); n > 0; n-- {
		x, y := 1+r.Intn(nv), 1+r.Intn(nv)
		switch r.Intn(5) {
		case 0:
			s.Add(Pred{Kind: PredPC, X: x, Y: y})
		case 1:
			s.Add(Pred{Kind: PredAD, X: x, Y: y})
		case 2:
			s.Add(Pred{Kind: PredTag, X: x, Tag: string(rune('a' + r.Intn(2)))})
		case 3:
			s.Add(Pred{Kind: PredContains, X: x, Expr: arbitraryExprs[r.Intn(len(arbitraryExprs))]})
		default:
			s.Add(Pred{Kind: PredValue, X: x, VP: ValuePred{Attr: "k", Op: OpEq, Value: "1"}})
		}
	}
	if got, want := keysOf(Closure(s)), keysOf(oracleClosure(s)); !reflect.DeepEqual(got, want) {
		t.Errorf("seed %d: Closure(%s)\n got %v\nwant %v", seed, s, got, want)
	}
	if got, want := keysOf(Core(s)), keysOf(oracleCore(s)); !reflect.DeepEqual(got, want) {
		t.Errorf("seed %d: Core(%s)\n got %v\nwant %v", seed, s, got, want)
	}
	for _, p := range oracleClosure(s).List() {
		if got, want := Derivable(s, p), oracleDerivable(s, p); got != want {
			t.Errorf("seed %d: Derivable(%s, %s) = %v, oracle %v", seed, s, p.Key(), got, want)
		}
	}
	gq, gerr := TreeFromPreds(s, 1)
	wq, werr := oracleTreeFromPreds(s, 1)
	if (gerr == nil) != (werr == nil) {
		t.Errorf("seed %d: TreeFromPreds(%s) error %v, oracle %v", seed, s, gerr, werr)
	} else if gerr == nil && !reflect.DeepEqual(gq, wq) {
		t.Errorf("seed %d: TreeFromPreds(%s) = %s, oracle %s", seed, s, gq.Canon(), wq.Canon())
	}
}

// pathQuery returns //t1/t2//t3/... of the given depth with a contains
// predicate on the leaf: depth d has d(d-1)/2 ad, about d/2 pc, d tag and
// d contains predicates in its closure.
func pathQuery(depth int) *Query {
	var sb strings.Builder
	for i := 1; i <= depth; i++ {
		if i%2 == 1 {
			sb.WriteString("//")
		} else {
			sb.WriteString("/")
		}
		fmt.Fprintf(&sb, "t%d", i)
	}
	sb.WriteString(`[.contains("gold")]`)
	return MustParse(sb.String())
}

// TestKernelMultiWord runs the start of the differential walk (the oracle
// takes a second per set at this size) on queries whose closures need two
// and three machine words.
func TestKernelMultiWord(t *testing.T) {
	for _, tc := range []struct{ depth, over, sets int }{{11, 64, 24}, {16, 128, 8}} {
		q := pathQuery(tc.depth)
		u := NewUniverse(q)
		if u.Len() <= tc.over {
			t.Fatalf("depth %d: closure has %d predicates, want > %d", tc.depth, u.Len(), tc.over)
		}
		sets := walkChain(t, rand.New(rand.NewSource(int64(tc.depth))), q, tc.sets)
		t.Logf("depth %d: %d closure predicates in %d words, %d sets", tc.depth, u.Len(), len(u.NewBits()), sets)
	}
}
