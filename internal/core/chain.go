package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

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
// plan. Chains built from one Shape share Original, U and, between
// chains of one penalty order, each step's Dropped and Query; all of
// them are read-only.
//
// A chain evaluates each distinct contains expression of its universe
// once, when it is built, and holds the results: its penalties are
// computed from them, and its plans, the estimator and data relaxation
// read them (FullText). A result therefore lives exactly as long as the
// chain, or the plan template, that holds it.
type Chain struct {
	Original *tpq.Query
	// U indexes the predicates of the original query's closure; every
	// predicate set of the chain is a bitset over it.
	U *tpq.Universe
	// Base is the structural score of exact answers.
	Base  float64
	Steps []Step

	doc *xmltree.Document
	// ft[k] is the evaluated expression of U's expression class k.
	ft        []*ir.Result
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
// steps or penalties — it widens matching only. It builds a fresh Shape;
// callers that build one query's chain over several documents keep one
// Shape instead.
func BuildChainH(doc *xmltree.Document, ix *ir.Index, st *stats.Stats, w rank.Weights, q *tpq.Query, h *tpq.Hierarchy) (*Chain, error) {
	s, err := NewShape(q)
	if err != nil {
		return nil, err
	}
	return s.Chain(doc, ix, st, w, h)
}

// Shape is the document-independent half of a query's relaxation chains
// (§4.3, §5.1): the query's closure universe and, per penalty order, its
// relaxation skeleton — the predicates each step drops, the relaxed
// trees, distinguished IDs, descriptions and signature bits. The chain
// builder reads the penalties only through the order in which it tries
// the droppable predicates, so a skeleton is a pure function of that
// order, and documents whose statistics order the penalties alike share
// one. A Shape is safe for concurrent use; its universe, query and
// skeletons are shared read-only by every chain built from it.
type Shape struct {
	q    *tpq.Query // a private copy: every chain's Original
	u    *tpq.Universe
	root int // dense index of the query root

	mu        sync.Mutex
	skeletons []skeleton // one per distinct order, at most maxSkeletons
}

// maxSkeletons bounds a Shape's memo: a query kept across many documents
// with distinct penalty orders computes the overflow per chain instead of
// holding it.
const maxSkeletons = 64

// skeleton is the relaxation chain of one candidate order without its
// penalties: steps carry zero Penalty and SS.
type skeleton struct {
	order   []int32
	steps   []Step
	dropped [][]int32 // universe indices of steps[i].Dropped, in order
	bit     []uint8   // signature bit per universe index, noBit if none
	numBits int
}

// NewShape validates q and builds its closure universe.
func NewShape(q *tpq.Query) (*Shape, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q = q.Clone()
	u := tpq.NewUniverse(q)
	return &Shape{q: q, u: u, root: u.VarOf(q.Nodes[0].ID)}, nil
}

// Chain builds the shape's relaxation chain over one document: the
// penalties come from the document's statistics, the steps from the
// skeleton of their order, computed on first use. Each step's penalty is
// summed in the order its predicates were dropped, so chains are bit for
// bit those of a fresh build.
func (s *Shape) Chain(doc *xmltree.Document, ix *ir.Index, st *stats.Stats, w rank.Weights, h *tpq.Hierarchy) (*Chain, error) {
	if h != nil {
		if err := h.Validate(); err != nil {
			return nil, err
		}
	}
	u := s.u
	w = foldQueryWeights(w, s.q)
	ft := fullText(ix, u)
	pen := rank.NewPenalizer(st, ft, w, u)
	penalty := make([]float64, u.Len())
	// Candidates in the order every step tries them: by penalty, ties by
	// canonical key — which is index order.
	order := make([]int32, 0, u.Len())
	for i := 0; i < u.Len(); i++ {
		if droppable(u, i, s.root) {
			penalty[i] = pen.Penalty(i)
			order = append(order, int32(i))
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return penalty[order[a]] < penalty[order[b]] })
	sk := s.skeleton(order)
	c := &Chain{
		Original:  s.q,
		hierarchy: h,
		U:         u,
		Base:      pen.BaseScore(),
		Steps:     make([]Step, len(sk.steps)),
		doc:       doc,
		ft:        ft,
		weights:   w,
		penalty:   penalty,
		bit:       sk.bit,
		numBits:   sk.numBits,
		dropped:   sk.dropped,
	}
	ss := c.Base
	for j, step := range sk.steps {
		idx := sk.dropped[j]
		// The chosen predicate, then the contains predicates that
		// disappeared with its variable.
		p := penalty[idx[0]]
		for _, r := range idx[1:] {
			if u.Pred(int(r)).Kind == tpq.PredContains {
				p += penalty[r]
			}
		}
		ss -= p
		step.Penalty, step.SS = p, ss
		c.Steps[j] = step
	}
	return c, nil
}

// fullText evaluates each expression class of u once, indexed by class.
func fullText(ix *ir.Index, u *tpq.Universe) []*ir.Result {
	var ft []*ir.Result
	for i := 0; i < u.Len(); i++ {
		if u.Pred(i).Kind != tpq.PredContains {
			continue
		}
		k := u.Class(i)
		if k >= len(ft) {
			ft = append(ft, make([]*ir.Result, k+1-len(ft))...)
		}
		if ft[k] == nil {
			ft[k] = ix.Eval(u.Pred(i).Expr)
		}
	}
	return ft
}

// skeleton returns the memoized skeleton of a candidate order, computing
// it on first use (outside the lock: documents with different orders
// build theirs in parallel).
func (s *Shape) skeleton(order []int32) skeleton {
	s.mu.Lock()
	sk, ok := s.find(order)
	s.mu.Unlock()
	if ok {
		return sk
	}
	sk = s.relax(order)
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.find(order); ok {
		return prev
	}
	if len(s.skeletons) < maxSkeletons {
		s.skeletons = append(s.skeletons, sk)
	}
	return sk
}

// find returns the kept skeleton of order; s.mu must be held. A Shape
// keeps few (one per distinct order among the documents it is searched
// over), so a linear scan finds one.
func (s *Shape) find(order []int32) (skeleton, bool) {
	for _, sk := range s.skeletons {
		if slices.Equal(sk.order, order) {
			return sk, true
		}
	}
	return skeleton{}, false
}

// relax computes the skeleton of a candidate order, which it keeps:
// starting from the closure it repeatedly drops the first candidate whose
// removal is a valid relaxation, then assigns signature bits in chain
// order. Every step drops at least one candidate, so the steps fit in
// len(order).
func (s *Shape) relax(order []int32) skeleton {
	u := s.u
	sk := skeleton{
		order:   order,
		steps:   make([]Step, 0, len(order)),
		dropped: make([][]int32, 0, len(order)),
		bit:     make([]uint8, u.Len()),
	}
	b := chainBuilder{
		u: u, order: order,
		cur: u.All(), tentative: u.NewBits(), core: u.NewBits(), scratch: u.NewBits(),
		curQuery: s.q,
		distID:   s.q.Nodes[s.q.Dist].ID,
	}
	for {
		step, idx, ok := b.nextStep()
		if !ok {
			break
		}
		sk.steps = append(sk.steps, step)
		sk.dropped = append(sk.dropped, idx)
	}
	// Assign signature bits to dropped predicates in chain order; queries
	// large enough to exceed 64 tracked predicates share the last bit
	// (merging buckets, which is harmless).
	for i := range sk.bit {
		sk.bit[i] = noBit
	}
	for _, idx := range sk.dropped {
		for _, i := range idx {
			if k := u.Pred(int(i)).Kind; k == tpq.PredTag || k == tpq.PredValue {
				continue
			}
			bit := sk.numBits
			if bit > 63 {
				bit = 63
			} else {
				sk.numBits++
			}
			sk.bit[i] = uint8(bit)
		}
	}
	if sk.numBits > 63 {
		sk.numBits = 64
	}
	return sk
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

// chainBuilder is the state Shape.relax carries from step to step: the
// predicates still in force and the scratch sets each candidate is tried
// in.
type chainBuilder struct {
	u     *tpq.Universe
	order []int32 // droppable predicates by (penalty, key)
	// cur is the current predicate set; tentative, core and scratch are
	// overwritten per candidate.
	cur, tentative, core, scratch tpq.Bits
	curQuery                      *tpq.Query
	distID                        int
}

// nextStep finds the first droppable predicate in order whose removal is
// a valid relaxation of the current predicate set, per Definition 1/2,
// and applies it. It returns the step, without its penalty, and the
// universe indices of its dropped predicates.
func (b *chainBuilder) nextStep() (Step, []int32, bool) {
	u := b.u
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
			Query:   relaxed,
			DistID:  newDist,
			Desc:    describe(u, i, orphaned),
		}, dropped, true
	}
	return Step{}, nil, false
}

// describe names the relaxation operator dropping universe predicate i
// corresponds to; orphaned is the dense variable the drop deleted, or -1.
func describe(u *tpq.Universe, i, orphaned int) string {
	x := u.VarTag(u.X(i))
	switch u.Pred(i).Kind {
	case tpq.PredPC:
		return "generalize edge " + x + "/" + u.VarTag(u.Y(i))
	case tpq.PredAD:
		if orphaned == u.Y(i) {
			return "delete " + u.VarTag(u.Y(i))
		}
		return "promote " + u.VarTag(u.Y(i)) + " above " + x
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

// containsLocs returns the keyword-score location of each contains
// predicate of the original query under the remaining predicate set cur,
// in canonical key order.
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

// FullText returns the chain's evaluation of e, which must be an
// expression of its universe: a contains expression of the original query
// or of any relaxation of it.
func (c *Chain) FullText(e ir.Expr) *ir.Result {
	return c.ft[c.U.ClassOf(e.Canon())]
}

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
