package core

import (
	"fmt"
	"sort"
	"strings"

	"flexpath/internal/ir"
	"flexpath/internal/rank"
	"flexpath/internal/stats"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

// Step is one link of a relaxation chain: the predicates dropped from the
// query closure (one chosen predicate plus the value-based predicates
// automatically dropped when a variable disappears, §3.3), the penalty
// paid, and the resulting relaxed query.
type Step struct {
	// Dropped lists the closure predicates this step drops; Dropped[0] is
	// the chosen (lowest-penalty) predicate.
	Dropped []tpq.Pred
	// Penalty is the total penalty of the step's dropped predicates.
	Penalty float64
	// Query is the relaxed query after this step (the core of the
	// remaining predicate set).
	Query *tpq.Query
	// SS is the uniform structural score of answers first admitted at
	// this relaxation level (Base minus all penalties so far).
	SS float64
	// DistID is the stable ID of the distinguished variable after this
	// step (leaf deletion may move it to the parent).
	DistID int
	// Desc is a human-readable description of the relaxation operator
	// this predicate drop corresponds to.
	Desc string
}

// Chain is the penalty-ordered sequence of relaxations of a query (§5.1):
// starting from the query's closure, it repeatedly drops the remaining
// droppable predicate with the lowest penalty whose removal yields a valid
// relaxation. DPO walks the chain one step at a time; SSO and Hybrid
// choose a prefix with selectivity estimates and encode it into a single
// plan.
type Chain struct {
	Original *tpq.Query
	// U indexes the predicates of the original query's closure; every
	// predicate set of the chain is a bitset over it.
	U *tpq.Universe
	// Base is the structural score of exact answers.
	Base  float64
	Steps []Step

	doc       *xmltree.Document
	ix        *ir.Index
	weights   rank.Weights
	hierarchy *tpq.Hierarchy
	// Per universe index: the penalty of each droppable predicate, and the
	// signature bit of each dropped one (noBit otherwise).
	penalty []float64
	bit     []uint8
	numBits int
	// dropped[i] holds the universe indices of Steps[i].Dropped, in the
	// same order.
	dropped [][]int32
}

// noBit marks a predicate without a signature bit: never dropped, or a
// tag/value predicate that disappeared with its variable.
const noBit = 0xff

// BuildChain computes the full relaxation chain of q over the given
// document, index and statistics.
func BuildChain(doc *xmltree.Document, ix *ir.Index, st *stats.Stats, w rank.Weights, q *tpq.Query) (*Chain, error) {
	return BuildChainH(doc, ix, st, w, q, nil)
}

// BuildChainH is BuildChain with a type hierarchy (§3.4 extension): plans
// built from the chain match each tag constraint against the tag or any
// of its subtypes. The hierarchy does not change the chain's relaxation
// steps or penalties — it widens matching only.
func BuildChainH(doc *xmltree.Document, ix *ir.Index, st *stats.Stats, w rank.Weights, q *tpq.Query, h *tpq.Hierarchy) (*Chain, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if h != nil {
		if err := h.Validate(); err != nil {
			return nil, err
		}
	}
	w = foldQueryWeights(w, q)
	u := tpq.NewUniverse(q)
	pen := rank.NewPenalizer(st, ix, w, u)
	c := &Chain{
		Original:  q.Clone(),
		hierarchy: h,
		U:         u,
		Base:      pen.BaseScore(),
		doc:       doc,
		ix:        ix,
		weights:   w,
		penalty:   make([]float64, u.Len()),
		bit:       make([]uint8, u.Len()),
	}
	// Candidates in the order every step tries them: by penalty, ties by
	// canonical key — which is index order. Penalties never change, so one
	// sort serves all steps.
	root := u.VarOf(q.Nodes[0].ID)
	order := make([]int32, 0, u.Len())
	for i := 0; i < u.Len(); i++ {
		c.bit[i] = noBit
		if droppable(u, i, root) {
			c.penalty[i] = pen.Penalty(i)
			order = append(order, int32(i))
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return c.penalty[order[a]] < c.penalty[order[b]] })

	b := chainBuilder{
		c: c, order: order,
		cur: u.All(), tentative: u.NewBits(), core: u.NewBits(), scratch: u.NewBits(),
		curQuery: c.Original,
		distID:   q.Nodes[q.Dist].ID,
	}
	ss := c.Base
	for {
		step, idx, ok := b.nextStep()
		if !ok {
			break
		}
		ss -= step.Penalty
		step.SS = ss
		c.Steps = append(c.Steps, step)
		c.dropped = append(c.dropped, idx)
	}
	// Assign signature bits to dropped predicates in chain order; queries
	// large enough to exceed 64 tracked predicates share the last bit
	// (merging buckets, which is harmless).
	for _, idx := range c.dropped {
		for _, i := range idx {
			if k := u.Pred(int(i)).Kind; k == tpq.PredTag || k == tpq.PredValue {
				continue
			}
			bit := c.numBits
			if bit > 63 {
				bit = 63
			} else {
				c.numBits++
			}
			c.bit[i] = uint8(bit)
		}
	}
	if c.numBits > 63 {
		c.numBits = 64
	}
	return c, nil
}

// foldQueryWeights merges user-specified per-edge weights from the query
// syntax (tag^2.5) into the weight assignment: the edge's pc and ad
// predicates both carry the user weight.
func foldQueryWeights(w rank.Weights, q *tpq.Query) rank.Weights {
	var per map[string]float64
	for i := range q.Nodes {
		n := &q.Nodes[i]
		if n.Weight <= 0 || n.Parent == -1 {
			continue
		}
		if per == nil {
			per = make(map[string]float64)
			for k, v := range w.PerPred {
				per[k] = v
			}
		}
		pid := q.Nodes[n.Parent].ID
		per[(tpq.Pred{Kind: tpq.PredPC, X: pid, Y: n.ID}).Key()] = n.Weight
		per[(tpq.Pred{Kind: tpq.PredAD, X: pid, Y: n.ID}).Key()] = n.Weight
	}
	if per != nil {
		w.PerPred = per
	}
	return w
}

// droppable reports whether chain steps may drop universe predicate i;
// root is the dense index of the query root.
func droppable(u *tpq.Universe, i, root int) bool {
	switch u.Pred(i).Kind {
	case tpq.PredPC, tpq.PredAD:
		return true
	case tpq.PredContains:
		// The root's contains predicate is never dropped: the loosest
		// interpretation keeps the full-text search itself (§1, §3.5.4).
		return u.X(i) != root
	default:
		return false
	}
}

// chainBuilder is the state BuildChainH carries from step to step: the
// predicates still in force and the scratch sets each candidate is tried
// in.
type chainBuilder struct {
	c     *Chain
	order []int32 // droppable predicates by (penalty, key)
	// cur is the current predicate set; tentative, core and scratch are
	// overwritten per candidate.
	cur, tentative, core, scratch tpq.Bits
	curQuery                      *tpq.Query
	distID                        int
}

// nextStep finds the lowest-penalty droppable predicate whose removal is a
// valid relaxation of the current predicate set, per Definition 1/2, and
// applies it. It returns the step and the universe indices of its dropped
// predicates.
func (b *chainBuilder) nextStep() (Step, []int32, bool) {
	u := b.c.U
	for _, oi := range b.order {
		i := int(oi)
		// Dropping a derivable predicate yields an equivalent query, not
		// a relaxation (Definition 1(i)); it may become meaningful after
		// other predicates are dropped, so it is retried each round.
		if !b.cur.Has(i) || u.Derivable(b.cur, i, b.scratch) {
			continue
		}
		b.tentative.Copy(b.cur)
		b.tentative.Clear(i)
		dropped := []int32{oi}
		penalty := b.c.penalty[i]
		newDist := b.distID
		orphaned := -1
		if y := u.Y(i); y >= 0 && !b.tentative.Intersects(u.In(y)) {
			// y disappears: only valid when it has no structural
			// children left (leaf deletion, §3.5.2).
			if b.tentative.Intersects(u.Out(y)) {
				continue
			}
			orphaned = y
			attrs := u.Attrs(y)
			for r := attrs.Next(0); r >= 0; r = attrs.Next(r + 1) {
				if !b.tentative.Has(r) {
					continue
				}
				b.tentative.Clear(r)
				dropped = append(dropped, int32(r))
				if u.Pred(r).Kind == tpq.PredContains {
					penalty += b.c.penalty[r]
				}
			}
			if u.VarID(y) == b.distID {
				// λ moves the distinguished node to the parent.
				n := b.curQuery.NodeByID(b.distID)
				if n <= 0 {
					continue
				}
				newDist = b.curQuery.Nodes[b.curQuery.Nodes[n].Parent].ID
			}
		}
		b.core.Copy(b.tentative)
		u.Core(b.core, b.scratch)
		relaxed, err := u.Tree(b.core, newDist)
		if err != nil {
			continue
		}
		b.cur, b.tentative = b.tentative, b.cur
		b.curQuery, b.distID = relaxed, newDist
		preds := make([]tpq.Pred, len(dropped))
		for k, d := range dropped {
			preds[k] = u.Pred(int(d))
		}
		return Step{
			Dropped: preds,
			Penalty: penalty,
			Query:   relaxed,
			DistID:  newDist,
			Desc:    b.c.describe(i, orphaned),
		}, dropped, true
	}
	return Step{}, nil, false
}

// describe names the relaxation operator dropping universe predicate i
// corresponds to; orphaned is the dense variable the drop deleted, or -1.
func (c *Chain) describe(i, orphaned int) string {
	x := c.U.VarTag(c.U.X(i))
	switch c.U.Pred(i).Kind {
	case tpq.PredPC:
		return "generalize edge " + x + "/" + c.U.VarTag(c.U.Y(i))
	case tpq.PredAD:
		if orphaned == c.U.Y(i) {
			return "delete " + c.U.VarTag(c.U.Y(i))
		}
		return "promote " + c.U.VarTag(c.U.Y(i)) + " above " + x
	default:
		return "promote contains from " + x
	}
}

// Len returns the number of relaxation steps in the chain.
func (c *Chain) Len() int { return len(c.Steps) }

// QueryAt returns the relaxed query after j steps (j = 0 is the original).
func (c *Chain) QueryAt(j int) *tpq.Query {
	if j == 0 {
		return c.Original
	}
	return c.Steps[j-1].Query
}

// SSAt returns the uniform structural score of answers first admitted at
// relaxation level j.
func (c *Chain) SSAt(j int) float64 {
	if j == 0 {
		return c.Base
	}
	return c.Steps[j-1].SS
}

// DistIDAt returns the stable ID of the distinguished variable after j
// steps.
func (c *Chain) DistIDAt(j int) int {
	if j == 0 {
		return c.Original.Nodes[c.Original.Dist].ID
	}
	return c.Steps[j-1].DistID
}

// DroppedUpTo returns the set of predicates dropped by steps 1..j, over
// the chain's universe.
func (c *Chain) DroppedUpTo(j int) tpq.Bits {
	s := c.U.NewBits()
	for _, idx := range c.dropped[:j] {
		for _, i := range idx {
			s.Set(int(i))
		}
	}
	return s
}

// RemainingAt returns the closure predicates still in force after j
// steps: the closure minus DroppedUpTo(j).
func (c *Chain) RemainingAt(j int) tpq.Bits {
	s := c.U.All()
	for _, idx := range c.dropped[:j] {
		for _, i := range idx {
			s.Clear(int(i))
		}
	}
	return s
}

// ContainsLoc is where one contains predicate of the original query
// contributes its keyword score at some relaxation level.
type ContainsLoc struct {
	// Var is the stable ID of the deepest variable, from the predicate's
	// original context upward, whose contains predicate survives (the
	// root when none does).
	Var int
	// Class identifies the expression among the chain's universe's
	// expression classes.
	Class int
	Expr  ir.Expr
}

// ContainsLocsAt returns the keyword-score location of each contains
// predicate of the original query after j steps, in canonical key order.
func (c *Chain) ContainsLocsAt(j int) []ContainsLoc { return c.containsLocs(c.RemainingAt(j)) }

// containsLocs is ContainsLocsAt for the given remaining set.
func (c *Chain) containsLocs(cur tpq.Bits) []ContainsLoc {
	u := c.U
	logical := u.Logical()
	var locs []ContainsLoc
	for i := logical.Next(0); i >= 0; i = logical.Next(i + 1) {
		if u.Pred(i).Kind != tpq.PredContains {
			continue
		}
		class := u.Class(i)
		loc := u.X(i)
		for loc != -1 {
			if k := u.ContainsAt(loc, class); k >= 0 && cur.Has(k) {
				break
			}
			loc = u.VarParent(loc)
		}
		id := c.Original.Nodes[0].ID
		if loc != -1 {
			id = u.VarID(loc)
		}
		locs = append(locs, ContainsLoc{Var: id, Class: class, Expr: u.Pred(i).Expr})
	}
	return locs
}

// Weights returns the weight assignment the chain was built with.
func (c *Chain) Weights() rank.Weights { return c.weights }

// Index returns the full-text index the chain was built against.
func (c *Chain) Index() *ir.Index { return c.ix }

// Doc returns the document the chain was built against.
func (c *Chain) Doc() *xmltree.Document { return c.doc }

// Hierarchy returns the type hierarchy the chain matches tags against
// (nil for plain tag equality).
func (c *Chain) Hierarchy() *tpq.Hierarchy { return c.hierarchy }

// String summarizes the chain for diagnostics.
func (c *Chain) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chain base=%.3f steps=%d\n", c.Base, len(c.Steps))
	for i, s := range c.Steps {
		fmt.Fprintf(&sb, "  %2d. %-40s penalty=%.4f ss=%.4f\n", i+1, s.Desc, s.Penalty, s.SS)
	}
	return sb.String()
}

// PenaltyOfPC returns the penalty of dropping the pc predicate between
// variables x and y of the original query (by stable ID), or the full
// structural weight when no such predicate exists. The data-relaxation
// baseline scores shortcut matches with it.
func (c *Chain) PenaltyOfPC(x, y int) float64 {
	if xv, yv := c.U.VarOf(x), c.U.VarOf(y); xv >= 0 && yv >= 0 {
		if i := c.U.PC(xv, yv); i >= 0 {
			return c.penalty[i]
		}
	}
	return c.weights.Structural
}

// StepBits returns the signature bit mask of the predicates dropped by
// chain step j (1-based). An answer whose plan signature has all of a
// step's bits set satisfies everything that step dropped.
func (c *Chain) StepBits(j int) uint64 {
	var mask uint64
	for _, i := range c.dropped[j-1] {
		if bit := c.bit[i]; bit != noBit {
			mask |= 1 << bit
		}
	}
	return mask
}
