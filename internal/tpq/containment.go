package tpq

import "flexpath/internal/ir"

// ContainedIn reports whether q is contained in qPrime: for every document
// D, q(D) ⊆ qPrime(D). For the wildcard-free tree pattern fragment used
// here, containment holds exactly when there is a homomorphism from
// qPrime into q that maps qPrime's distinguished node onto q's, preserves
// tags, maps pc edges onto pc predicates and ad edges onto ad predicates
// of q's closure, and maps every contains/value predicate onto one implied
// by q's closure (Miklau & Suciu, PODS 2002; homomorphism is complete in
// the absence of wildcards).
func ContainedIn(q, qPrime *Query) bool {
	cl := ClosureOf(q)
	// cand[i] = set of q node indexes that qPrime node i can map to, such
	// that the whole subtree of i can be consistently mapped.
	cand := make([]map[int]bool, len(qPrime.Nodes))

	localOK := func(pi, qi int) bool {
		pn := &qPrime.Nodes[pi]
		qn := &q.Nodes[qi]
		if pn.Tag != qn.Tag {
			return false
		}
		if pi == qPrime.Dist && qi != q.Dist {
			return false
		}
		for _, e := range pn.Contains {
			if !cl.HasKey((Pred{Kind: PredContains, X: qn.ID, Expr: e}).Key()) {
				return false
			}
		}
		for _, v := range pn.Values {
			if !cl.HasKey((Pred{Kind: PredValue, X: qn.ID, VP: v}).Key()) {
				return false
			}
		}
		return true
	}

	edgeOK := func(axis Axis, parentQI, childQI int) bool {
		px, cy := q.Nodes[parentQI].ID, q.Nodes[childQI].ID
		if axis == Child {
			return cl.HasKey((Pred{Kind: PredPC, X: px, Y: cy}).Key())
		}
		return cl.HasKey((Pred{Kind: PredAD, X: px, Y: cy}).Key())
	}

	// Process qPrime nodes children-first (reverse pre-order).
	for pi := len(qPrime.Nodes) - 1; pi >= 0; pi-- {
		cand[pi] = map[int]bool{}
		children := qPrime.Children(pi)
		for qi := range q.Nodes {
			if !localOK(pi, qi) {
				continue
			}
			ok := true
			for _, c := range children {
				found := false
				for qc := range cand[c] {
					if edgeOK(qPrime.Nodes[c].Axis, qi, qc) {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if ok {
				cand[pi][qi] = true
			}
		}
	}
	return len(cand[0]) > 0
}

// Equivalent reports whether two queries return the same answers on every
// document.
func Equivalent(a, b *Query) bool {
	return ContainedIn(a, b) && ContainedIn(b, a)
}

// Minimize returns the unique minimal query equivalent to q (Theorem 1;
// Flesca et al., VLDB 2003): first the predicate-level core of the
// closure removes redundant derived predicates, then subtrees whose
// removal leaves an equivalent query are pruned (a branch is redundant
// when a homomorphism maps it into another branch, e.g. .//b next to
// ./b). The distinguished node's subtree is never pruned.
func Minimize(q *Query) (*Query, error) {
	cur, err := TreeFromPreds(CoreOf(q), q.Nodes[q.Dist].ID)
	if err != nil {
		return nil, err
	}
	for {
		pruned := false
		for i := 1; i < len(cur.Nodes); i++ {
			if i == cur.Dist || cur.AncestorOf(i, cur.Dist) {
				continue
			}
			cand := removeSubtree(cur, i)
			if cand == nil {
				continue
			}
			if Equivalent(cand, cur) {
				cur = cand
				pruned = true
				break
			}
		}
		if !pruned {
			return cur, nil
		}
	}
}

// removeSubtree returns q without the subtree rooted at node index i, or
// nil when removal is impossible (i is the root).
func removeSubtree(q *Query, i int) *Query {
	if i <= 0 {
		return nil
	}
	drop := map[int]bool{i: true}
	for j := i + 1; j < len(q.Nodes); j++ {
		if drop[q.Nodes[j].Parent] {
			drop[j] = true
		}
	}
	if drop[q.Dist] {
		return nil
	}
	out := &Query{}
	oldToNew := make(map[int]int, len(q.Nodes))
	for j := range q.Nodes {
		if drop[j] {
			continue
		}
		n := q.Nodes[j]
		if n.Parent != -1 {
			n.Parent = oldToNew[n.Parent]
		}
		n.Contains = append([]ir.Expr(nil), n.Contains...)
		n.Values = append([]ValuePred(nil), n.Values...)
		oldToNew[j] = len(out.Nodes)
		out.Nodes = append(out.Nodes, n)
	}
	out.Dist = oldToNew[q.Dist]
	out.Normalize()
	return out
}
