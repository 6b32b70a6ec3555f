package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"flexpath/internal/ir"
	"flexpath/internal/rank"
	"flexpath/internal/tpq"
)

// refStep is what a chain step must agree on, bit for bit.
type refStep struct {
	Dropped []string
	Penalty float64
	SS      float64
	DistID  int
	Desc    string
	Canon   string
	Bits    uint64
}

// referenceChain is the chain builder this package shipped before the
// bitset kernel, kept as the slow-and-obviously-right oracle: §5.1 over
// string-keyed PredSets — candidates re-sorted by (penalty, key) on every
// step, derivability, core and tree reconstruction through the PredSet
// API.
func referenceChain(f *fixture, w rank.Weights, q *tpq.Query) (base float64, steps []refStep) {
	w = foldQueryWeights(w, q)
	u := tpq.NewUniverse(q)
	pen := rank.NewPenalizer(f.st, f.ix, w, u)
	closure := tpq.ClosureOf(q)
	rootID := q.Nodes[0].ID
	tagOf := map[int]string{}
	for i := range q.Nodes {
		tagOf[q.Nodes[i].ID] = q.Nodes[i].Tag
	}
	isDroppable := func(p tpq.Pred) bool {
		return p.Kind == tpq.PredPC || p.Kind == tpq.PredAD || (p.Kind == tpq.PredContains && p.X != rootID)
	}
	penaltyOf := map[string]float64{}
	for _, p := range closure.List() {
		if isDroppable(p) {
			penaltyOf[p.Key()] = pen.Penalty(u.Index(p))
		}
	}
	hasEdge := func(s *tpq.PredSet, v int, into bool) bool {
		for _, p := range s.List() {
			if (p.Kind == tpq.PredPC || p.Kind == tpq.PredAD) && ((into && p.Y == v) || (!into && p.X == v)) {
				return true
			}
		}
		return false
	}

	base = pen.BaseScore()
	cur, curQuery, distID, ss := closure.Clone(), q.Clone(), q.Nodes[q.Dist].ID, base
	var droppedPreds [][]tpq.Pred
	for {
		var cands []tpq.Pred
		for _, p := range cur.List() {
			if isDroppable(p) {
				cands = append(cands, p)
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			pi, pj := penaltyOf[cands[i].Key()], penaltyOf[cands[j].Key()]
			if pi != pj {
				return pi < pj
			}
			return cands[i].Key() < cands[j].Key()
		})
		stepped := false
		for _, p := range cands {
			if tpq.Derivable(cur, p) {
				continue
			}
			tentative := cur.Minus(p)
			dropped := []tpq.Pred{p}
			penalty := penaltyOf[p.Key()]
			newDist, orphaned := distID, -1
			if (p.Kind == tpq.PredPC || p.Kind == tpq.PredAD) && !hasEdge(tentative, p.Y, true) {
				if hasEdge(tentative, p.Y, false) {
					continue
				}
				orphaned = p.Y
				for _, r := range tentative.List() {
					if r.Kind != tpq.PredPC && r.Kind != tpq.PredAD && r.X == p.Y {
						tentative.Remove(r)
						dropped = append(dropped, r)
						if r.Kind == tpq.PredContains {
							penalty += pen.Penalty(u.Index(r))
						}
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
			relaxed, err := tpq.TreeFromPreds(tpq.Core(tentative), newDist)
			if err != nil {
				continue
			}
			var desc string
			switch {
			case p.Kind == tpq.PredPC:
				desc = fmt.Sprintf("generalize edge %s/%s", tagOf[p.X], tagOf[p.Y])
			case p.Kind == tpq.PredAD && orphaned == p.Y:
				desc = fmt.Sprintf("delete %s", tagOf[p.Y])
			case p.Kind == tpq.PredAD:
				desc = fmt.Sprintf("promote %s above %s", tagOf[p.Y], tagOf[p.X])
			default:
				desc = fmt.Sprintf("promote contains from %s", tagOf[p.X])
			}
			ss -= penalty
			st := refStep{Penalty: penalty, SS: ss, DistID: newDist, Desc: desc, Canon: relaxed.Canon()}
			for _, d := range dropped {
				st.Dropped = append(st.Dropped, d.Key())
			}
			steps = append(steps, st)
			droppedPreds = append(droppedPreds, dropped)
			cur, curQuery, distID = tentative, relaxed, newDist
			stepped = true
			break
		}
		if !stepped {
			break
		}
	}
	numBits := 0
	for i, dropped := range droppedPreds {
		for _, p := range dropped {
			if p.Kind == tpq.PredTag || p.Kind == tpq.PredValue {
				continue
			}
			bit := uint(numBits)
			if bit > 63 {
				bit = 63
			} else {
				numBits++
			}
			steps[i].Bits |= 1 << bit
		}
	}
	return base, steps
}

func stepsOf(c *Chain) []refStep {
	var out []refStep
	for j, s := range c.Steps {
		st := refStep{Penalty: s.Penalty, SS: s.SS, DistID: s.DistID, Desc: s.Desc, Canon: s.Query.Canon(), Bits: c.StepBits(j + 1)}
		for _, p := range s.Dropped {
			st.Dropped = append(st.Dropped, p.Key())
		}
		out = append(out, st)
	}
	return out
}

func checkAgainstReference(t *testing.T, f *fixture, w rank.Weights, q *tpq.Query) {
	t.Helper()
	c, err := BuildChainH(f.doc, f.ix, f.st, w, q, nil)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	base, want := referenceChain(f, w, q)
	if c.Base != base {
		t.Fatalf("%s: base %v, reference %v", q, c.Base, base)
	}
	got := stepsOf(c)
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps, reference %d", q, len(got), len(want))
	}
	for j := range want {
		if !reflect.DeepEqual(got[j], want[j]) {
			t.Fatalf("%s step %d:\n got %+v\nwant %+v", q, j+1, got[j], want[j])
		}
	}
}

// randomXMarkTPQ draws a 2-8 node query over tags that occur in xmark
// documents (so penalties take many distinct values, and tags that never
// nest give the all-ones ties that only the key order breaks), with mixed
// axes, 0-2 contains predicates, value predicates, user edge weights and
// a random distinguished node.
func randomXMarkTPQ(r *rand.Rand) *tpq.Query {
	tags := []string{"item", "description", "parlist", "listitem", "text", "name", "mailbox",
		"mail", "from", "keyword", "bold", "emph", "incategory", "location", "open_auction", "annotation"}
	exprs := []ir.Expr{
		ir.MustParseExpr(`"gold"`), ir.MustParseExpr(`"vintage" or "walnut"`), ir.MustParseExpr(`"rare" and "silver"`),
	}
	n := 2 + r.Intn(7)
	q := &tpq.Query{}
	for i := 0; i < n; i++ {
		node := tpq.Node{ID: i + 1, Tag: tags[r.Intn(len(tags))], Parent: -1}
		if i > 0 {
			node.Parent = r.Intn(i)
			if r.Intn(2) == 0 {
				node.Axis = tpq.Descendant
			}
			if r.Intn(8) == 0 {
				node.Weight = 0.5 + float64(r.Intn(4))
			}
		}
		if r.Intn(6) == 0 {
			node.Values = append(node.Values, tpq.ValuePred{Attr: "id", Op: tpq.OpNe, Value: "x"})
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

// TestChainMatchesReference is the chain-level differential suite: the
// kernel's chains against the PredSet-level reference builder on random
// queries, some under non-uniform and per-predicate weights.
func TestChainMatchesReference(t *testing.T) {
	f := xmarkFixture(t, 200<<10, 3)
	queries := 500
	if testing.Short() {
		queries = 80
	}
	r := rand.New(rand.NewSource(29))
	for i := 0; i < queries; i++ {
		q := randomXMarkTPQ(r)
		w := rank.UniformWeights()
		switch i % 4 {
		case 1:
			w = rank.Weights{Structural: 2, Contains: 1.5}
		case 2:
			// An override on whichever edge predicates the query has.
			w.PerPred = map[string]float64{}
			for _, p := range tpq.ClosureOf(q).List() {
				if p.Kind == tpq.PredAD && r.Intn(3) == 0 {
					w.PerPred[p.Key()] = 0.25 + float64(r.Intn(3))
				}
			}
		}
		checkAgainstReference(t, f, w, q)
	}
}

// pathSrc is //t1/t2//t3/... of the given depth with a contains predicate
// on the leaf.
func pathSrc(depth int) string {
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
	return sb.String()
}

// TestChainMultiWord: closures of more than 64 and more than 128
// predicates build (the bitsets span several words), agree with the
// reference, and keep the documented rule that dropped predicates past
// the 63rd share the last signature bit.
func TestChainMultiWord(t *testing.T) {
	f := newFixture(t, articlesXML)
	for _, tc := range []struct{ depth, over int }{{11, 64}, {16, 128}} {
		q := tpq.MustParse(pathSrc(tc.depth))
		c, err := BuildChain(f.doc, f.ix, f.st, rank.UniformWeights(), q)
		if err != nil {
			t.Fatal(err)
		}
		if c.U.Len() <= tc.over {
			t.Fatalf("depth %d: closure has %d predicates, want > %d", tc.depth, c.U.Len(), tc.over)
		}
		tracked := 0
		for _, s := range c.Steps {
			for _, p := range s.Dropped {
				if p.Kind != tpq.PredTag && p.Kind != tpq.PredValue {
					tracked++
				}
			}
		}
		if tracked <= 64 {
			t.Fatalf("depth %d: only %d tracked dropped predicates, want > 64", tc.depth, tracked)
		}
		if c.numBits != 64 {
			t.Errorf("depth %d: numBits = %d, want 64", tc.depth, c.numBits)
		}
		if got := c.StepBits(c.Len()); got != 1<<63 {
			t.Errorf("depth %d: last step's mask = %x, want the shared bit 63", tc.depth, got)
		}
		if _, err := c.PlanAt(c.Len()); err != nil {
			t.Errorf("depth %d: PlanAt(%d): %v", tc.depth, c.Len(), err)
		}
		if !testing.Short() || tc.over == 64 {
			checkAgainstReference(t, f, rank.UniformWeights(), q)
		}
	}
}

// buildChainShapes are the query shapes of BenchmarkBuildChain and of the
// allocation ceilings: the benchmark's light and heavy ad-hoc shapes, an
// eight-node shape, and the paper's twelve-node XQ3.
var buildChainShapes = []struct {
	name, src string
	// maxAllocs is the ceiling on allocations per BuildChainH over
	// TestBuildChainAllocs's fixture; 0 leaves the shape unpinned.
	maxAllocs float64
}{
	{"3nodes", `//item[./name and ./description[.contains("vintage" or "walnut")]]`, 114},
	{"5nodes", `//open_auction[./bidder/date and ./annotation/description[.contains("vintage" or "walnut")]]`, 203},
	{"8nodes", `//item[./description/parlist/listitem and ./mailbox/mail/text[.contains("gold")] and ./name]`, 0},
	{"12nodes", `//item[./description/parlist/listitem and ` +
		`./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]`, 466},
}

// TestBuildChainAllocs pins the allocations of one chain build — an
// exact count, unlike wall-clock — so a change that brings per-step map
// or string churn back fails here.
func TestBuildChainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	f := xmarkFixture(t, 200<<10, 3)
	for _, sh := range buildChainShapes {
		if sh.maxAllocs == 0 {
			continue
		}
		q := tpq.MustParse(sh.src)
		w := rank.UniformWeights()
		got := testing.AllocsPerRun(20, func() {
			if _, err := BuildChainH(f.doc, f.ix, f.st, w, q, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per chain", sh.name, got)
		if got > sh.maxAllocs {
			t.Errorf("%s: %.0f allocs per chain, ceiling %.0f", sh.name, got, sh.maxAllocs)
		}
	}
}

var benchChain *Chain

func BenchmarkBuildChain(b *testing.B) {
	f := xmarkFixture(b, 512<<10, 3)
	for _, sh := range buildChainShapes {
		q := tpq.MustParse(sh.src)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := BuildChainH(f.doc, f.ix, f.st, rank.UniformWeights(), q, nil)
				if err != nil {
					b.Fatal(err)
				}
				benchChain = c
			}
		})
	}
}
