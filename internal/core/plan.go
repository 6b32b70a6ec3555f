package core

import (
	"fmt"

	"flexpath/internal/exec"
	"flexpath/internal/tpq"
)

// PlanAt builds the scored join plan that encodes the first j steps of the
// relaxation chain into a single query (§5.2.1): every predicate dropped
// by those steps becomes optional — it no longer filters, but an answer
// that still satisfies it earns the predicate's penalty back — and
// variables that lost all their structural predicates become optional
// joins. PlanAt(0) is the exact query.
func (c *Chain) PlanAt(j int) (*exec.Plan, error) {
	if j < 0 || j > len(c.Steps) {
		return nil, fmt.Errorf("core: plan index %d out of range [0,%d]", j, len(c.Steps))
	}
	u := c.U
	dropped := c.DroppedUpTo(j)
	cur := c.RemainingAt(j)

	orig := c.Original
	rootID := orig.Nodes[0].ID

	// Original-query variable metadata in pre-order.
	type varMeta struct {
		id      int
		tag     string
		node    *tpq.Node
		parent  int // variable ID, -1 for root
		depth   int
		present bool
	}
	metas := make([]varMeta, len(orig.Nodes))
	metaByID := make(map[int]*varMeta, len(orig.Nodes))
	for i := range orig.Nodes {
		n := &orig.Nodes[i]
		m := varMeta{id: n.ID, tag: n.Tag, node: n, parent: -1}
		if n.Parent != -1 {
			m.parent = orig.Nodes[n.Parent].ID
			m.depth = metas[n.Parent].depth + 1
		}
		m.present = n.ID == rootID || cur.Intersects(u.In(u.VarOf(n.ID)))
		metas[i] = m
		metaByID[n.ID] = &metas[i]
	}

	// Join order: present variables in pre-order, then optional ones.
	var order []*varMeta
	for i := range metas {
		if metas[i].present {
			order = append(order, &metas[i])
		}
	}
	firstOptional := len(order)
	for i := range metas {
		if !metas[i].present {
			order = append(order, &metas[i])
		}
	}
	planIdx := make(map[int]int, len(order))
	for i, m := range order {
		planIdx[m.id] = i
	}

	vars := make([]exec.VarSpec, len(order))
	// guard[i] = set of plan variables whose binding's subtree is
	// guaranteed to contain variable i's binding (its anchor chain); used
	// to elide implied ad checks.
	guard := make([]map[int]bool, len(order))
	for i, m := range order {
		v := exec.VarSpec{
			VarID:  m.id,
			Tag:    m.tag,
			Values: m.node.Values,
			Anchor: -1,
		}
		if c.hierarchy != nil {
			v.Tags = c.hierarchy.Subtypes(m.tag)
		}
		guard[i] = map[int]bool{}
		switch {
		case m.parent == -1:
			v.Rel = exec.RelRoot
		case !m.present:
			// Deleted variable: optional match under the nearest present
			// original ancestor.
			anc := m.parent
			for anc != -1 && !metaByID[anc].present {
				anc = metaByID[anc].parent
			}
			if anc == -1 {
				anc = rootID
			}
			v.Rel = exec.RelOptional
			v.Anchor = planIdx[anc]
		default:
			// Present variable: scope by the strongest remaining incoming
			// predicate (pc to the parent if kept, else the deepest kept
			// ad ancestor); any other kept incoming ad predicates that the
			// anchor chain does not imply become explicit checks.
			var incoming []tpq.Pred
			in := u.In(u.VarOf(m.id))
			for i := in.Next(0); i >= 0; i = in.Next(i + 1) {
				if cur.Has(i) {
					incoming = append(incoming, u.Pred(i))
				}
			}
			scopeX := -1
			if pc := u.PC(u.VarOf(m.parent), u.VarOf(m.id)); pc >= 0 && cur.Has(pc) {
				v.Rel = exec.RelParent
				v.Anchor = planIdx[m.parent]
				scopeX = m.parent
			} else {
				best := -1
				for _, p := range incoming {
					if p.Kind != tpq.PredAD {
						continue
					}
					if best == -1 || metaByID[p.X].depth > metaByID[best].depth {
						best = p.X
					}
				}
				if best == -1 {
					return nil, fmt.Errorf("core: present variable $%d has no incoming predicate", m.id)
				}
				v.Rel = exec.RelAncestor
				v.Anchor = planIdx[best]
				scopeX = best
			}
			guard[i][v.Anchor] = true
			for g := range guard[v.Anchor] {
				guard[i][g] = true
			}
			for _, p := range incoming {
				if p.X == scopeX {
					continue
				}
				if p.Kind == tpq.PredAD && guard[i][planIdx[p.X]] {
					continue // implied by the anchor chain
				}
				v.Checks = append(v.Checks, exec.StructCheck{
					Other:  planIdx[p.X],
					Parent: p.Kind == tpq.PredPC,
				})
			}
		}
		vars[i] = v
	}

	ksWeight := c.ksWeights(cur)

	// Required contains specs (surviving predicates) and optional ones
	// (dropped predicates, which earn penalties back when still
	// satisfied).
	for i := cur.Next(0); i >= 0; i = cur.Next(i + 1) {
		p := u.Pred(i)
		if p.Kind != tpq.PredContains {
			continue
		}
		v := planIdx[p.X]
		vars[v].Contains = append(vars[v].Contains, exec.ContainsSpec{
			Res:      c.ft[u.Class(i)],
			Required: true,
			Weight:   ksWeight[ksKey{p.X, u.Class(i)}],
		})
	}
	for i := dropped.Next(0); i >= 0; i = dropped.Next(i + 1) {
		p := u.Pred(i)
		switch p.Kind {
		case tpq.PredContains:
			v := planIdx[p.X]
			vars[v].Contains = append(vars[v].Contains, exec.ContainsSpec{
				Res:     c.ft[u.Class(i)],
				Penalty: c.penalty[i],
				Bit:     uint(c.bit[i]),
			})
		case tpq.PredPC, tpq.PredAD:
			xi, yi := planIdx[p.X], planIdx[p.Y]
			at, other := yi, xi
			otherIsAncestor := true
			if xi > yi {
				at, other = xi, yi
				otherIsAncestor = false
			}
			vars[at].Bonus = append(vars[at].Bonus, exec.BonusPred{
				Other:           other,
				OtherIsAncestor: otherIsAncestor,
				Parent:          p.Kind == tpq.PredPC,
				Penalty:         c.penalty[i],
				Bit:             uint(c.bit[i]),
			})
		}
	}

	distID := c.DistIDAt(j)
	di, ok := planIdx[distID]
	if !ok || !metaByID[distID].present {
		return nil, fmt.Errorf("core: distinguished variable $%d is not present in plan", distID)
	}
	return &exec.Plan{
		Doc:            c.doc,
		Vars:           vars,
		DistVar:        di,
		Base:           c.Base,
		DroppedPenalty: c.Base - c.SSAt(j),
		NumBits:        c.numBits,
		FirstOptional:  firstOptional,
	}, nil
}

// ksKey names a keyword-score location: a variable (stable ID) and an
// expression class of the chain's universe.
type ksKey struct{ id, class int }

// ksWeights returns the keyword-score weight each location carries when
// cur is the remaining predicate set: every contains predicate of the
// original query contributes the contains weight at the deepest variable
// (from its original context upward) whose contains predicate survives.
func (c *Chain) ksWeights(cur tpq.Bits) map[ksKey]float64 {
	ks := map[ksKey]float64{}
	for _, l := range c.containsLocs(cur) {
		ks[ksKey{l.Var, l.Class}] += c.weights.Contains
	}
	return ks
}

// ExactPlanAt builds an ordinary (non-scored) join plan for the relaxed
// query after j chain steps: every remaining predicate is required and
// all answers carry the level's uniform structural score. This is the
// plan shape DPO evaluates at each step of its rewriting loop (§5.1.1,
// Figure 8): the same left-deep structural join machinery as SSO/Hybrid,
// but one full pass per relaxation level.
func (c *Chain) ExactPlanAt(j int) (*exec.Plan, error) {
	if j < 0 || j > len(c.Steps) {
		return nil, fmt.Errorf("core: plan index %d out of range [0,%d]", j, len(c.Steps))
	}
	q := c.QueryAt(j)

	ksWeight := c.ksWeights(c.RemainingAt(j))

	vars := make([]exec.VarSpec, len(q.Nodes))
	for i := range q.Nodes {
		n := &q.Nodes[i]
		v := exec.VarSpec{
			VarID:  n.ID,
			Tag:    n.Tag,
			Values: n.Values,
			Anchor: n.Parent,
		}
		if c.hierarchy != nil {
			v.Tags = c.hierarchy.Subtypes(n.Tag)
		}
		switch {
		case n.Parent == -1:
			v.Rel = exec.RelRoot
		case n.Axis == tpq.Child:
			v.Rel = exec.RelParent
		default:
			v.Rel = exec.RelAncestor
		}
		for _, e := range n.Contains {
			k := c.U.ClassOf(e.Canon())
			v.Contains = append(v.Contains, exec.ContainsSpec{
				Res:      c.ft[k],
				Required: true,
				Weight:   ksWeight[ksKey{n.ID, k}],
			})
		}
		vars[i] = v
	}
	return &exec.Plan{
		Doc:           c.doc,
		Vars:          vars,
		DistVar:       q.Dist,
		Base:          c.SSAt(j),
		NumBits:       0,
		FirstOptional: len(vars),
	}, nil
}
