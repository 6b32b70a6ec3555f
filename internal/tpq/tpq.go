// Package tpq implements tree pattern queries (TPQs), the XPath fragment
// FleXPath operates on (§2.1 of the paper).
//
// A TPQ is a rooted tree whose nodes are query variables carrying a tag
// constraint, optional value-based predicates and optional contains
// (full-text) predicates; edges are parent-child (pc) or
// ancestor-descendant (ad); one node is distinguished and identifies the
// answers. The package provides:
//
//   - the query model and a parser for a mini-XPath syntax;
//   - the logical predicate form, its closure under the paper's three
//     inference rules (Figure 3), and the unique minimal core (Theorem 1);
//   - query containment via homomorphism, sound and complete for this
//     wildcard-free fragment;
//   - exact evaluation hooks used by the relaxation and ranking layers.
package tpq

import (
	"fmt"
	"sort"
	"strings"

	"flexpath/internal/ir"
)

// Axis is the structural relationship between a query node and its parent.
type Axis int8

const (
	// Child is the parent-child (pc) axis, written "/".
	Child Axis = iota
	// Descendant is the ancestor-descendant (ad) axis, written "//".
	Descendant
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	if a == Child {
		return "/"
	}
	return "//"
}

// CmpOp is a comparison operator of a value-based predicate.
type CmpOp int8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var cmpNames = [...]string{"=", "!=", "<", "<=", ">", ">="}

// String implements fmt.Stringer.
func (op CmpOp) String() string { return cmpNames[op] }

// ValuePred is a value-based predicate $i.attr relOp value (§2.1). An
// empty Attr compares the element's own text content ($i.content, the
// paper's footnote example "$i.content > 5"). The comparison is numeric
// when both sides parse as numbers, lexicographic otherwise.
type ValuePred struct {
	Attr  string
	Op    CmpOp
	Value string
}

// String implements fmt.Stringer.
func (v ValuePred) String() string {
	if v.Attr == "" {
		return fmt.Sprintf(". %s %q", v.Op, v.Value)
	}
	return fmt.Sprintf("@%s %s %q", v.Attr, v.Op, v.Value)
}

// Node is one query variable. ID is the variable's stable identity: it is
// assigned at parse time and preserved by every relaxation operation, so
// that predicates of the original query's closure can be tracked across
// relaxed queries.
type Node struct {
	ID       int
	Tag      string
	Contains []ir.Expr
	Values   []ValuePred
	// Parent is the index (not ID) of the parent node in Query.Nodes, or
	// -1 for the root. Axis is the edge type from the parent.
	Parent int
	Axis   Axis
	// Weight is the user-specified weight of the edge from the parent
	// (§4.1: "this weight may be user-specified"); 0 means the ranking
	// scheme's default. Written `tag^2.5` in query syntax.
	Weight float64
}

// Query is an immutable tree pattern query. Nodes[0] is the root and nodes
// are stored in pre-order (operations re-normalize). Dist indexes the
// distinguished node.
type Query struct {
	Nodes []Node
	Dist  int
}

// Clone returns a deep copy of q.
func (q *Query) Clone() *Query {
	out := &Query{Nodes: make([]Node, len(q.Nodes)), Dist: q.Dist}
	copy(out.Nodes, q.Nodes)
	for i := range out.Nodes {
		out.Nodes[i].Contains = append([]ir.Expr(nil), q.Nodes[i].Contains...)
		out.Nodes[i].Values = append([]ValuePred(nil), q.Nodes[i].Values...)
	}
	return out
}

// Root returns the index of the root node (always 0 in normalized form).
func (q *Query) Root() int { return 0 }

// Children returns the indexes of i's children, ordered as stored.
func (q *Query) Children(i int) []int {
	var out []int
	for j := range q.Nodes {
		if q.Nodes[j].Parent == i {
			out = append(out, j)
		}
	}
	return out
}

// IsLeaf reports whether node i has no children.
func (q *Query) IsLeaf(i int) bool {
	for j := range q.Nodes {
		if q.Nodes[j].Parent == i {
			return false
		}
	}
	return true
}

// NodeByID returns the index of the node with the given stable ID, or -1.
func (q *Query) NodeByID(id int) int {
	for i := range q.Nodes {
		if q.Nodes[i].ID == id {
			return i
		}
	}
	return -1
}

// Size returns the number of query variables.
func (q *Query) Size() int { return len(q.Nodes) }

// Validate checks the tree-pattern invariants: exactly one root at index
// 0, acyclic parent links, pre-order layout, a valid distinguished node,
// and unique stable IDs.
func (q *Query) Validate() error {
	if len(q.Nodes) == 0 {
		return fmt.Errorf("tpq: empty query")
	}
	if q.Nodes[0].Parent != -1 {
		return fmt.Errorf("tpq: node 0 is not the root")
	}
	ids := make([]int, len(q.Nodes))
	for i, n := range q.Nodes {
		if i > 0 && (n.Parent < 0 || n.Parent >= i) {
			return fmt.Errorf("tpq: node %d has invalid parent %d (not pre-order)", i, n.Parent)
		}
		if i > 0 && n.Parent == -1 {
			return fmt.Errorf("tpq: multiple roots")
		}
		ids[i] = n.ID
		if n.Tag == "" {
			return fmt.Errorf("tpq: node $%d has no tag", n.ID)
		}
	}
	sort.Ints(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return fmt.Errorf("tpq: duplicate variable id $%d", ids[i])
		}
	}
	if q.Dist < 0 || q.Dist >= len(q.Nodes) {
		return fmt.Errorf("tpq: invalid distinguished node %d", q.Dist)
	}
	return nil
}

// Normalize rewrites Nodes into pre-order with children ordered by stable
// ID, preserving the distinguished node. It must be called after any
// structural edit.
func (q *Query) Normalize() { q.normalize() }

func (q *Query) normalize() {
	n := len(q.Nodes)
	rootIdx := -1
	for i := range q.Nodes {
		if q.Nodes[i].Parent == -1 {
			rootIdx = i
			break
		}
	}
	if rootIdx == -1 {
		return
	}
	// One scratch block: node indexes by ID, each node's first child and
	// next sibling (children linked in ID order), the pre-order, and the
	// old-to-new index map.
	scratch := make([]int, 5*n)
	byID, first, next := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	order, oldToNew := scratch[3*n:3*n:4*n], scratch[4*n:]
	for i := range byID {
		byID[i] = i
		first[i] = -1
	}
	// Insertion sort: IDs are assigned in parse order and relaxations
	// keep nodes nearly sorted, so this is linear in practice.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && q.Nodes[byID[j]].ID < q.Nodes[byID[j-1]].ID; j-- {
			byID[j], byID[j-1] = byID[j-1], byID[j]
		}
	}
	for k := n - 1; k >= 0; k-- {
		i := byID[k]
		if p := q.Nodes[i].Parent; p != -1 {
			next[i] = first[p]
			first[p] = i
		}
	}
	// Pre-order walk; byID is free again and serves as the stack.
	stack := append(byID[:0], rootIdx)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, i)
		// Push children in reverse so the smallest ID is visited first.
		mark := len(stack)
		for c := first[i]; c != -1; c = next[c] {
			stack = append(stack, c)
		}
		for l, r := mark, len(stack)-1; l < r; l, r = l+1, r-1 {
			stack[l], stack[r] = stack[r], stack[l]
		}
	}
	for newIdx, oldIdx := range order {
		oldToNew[oldIdx] = newIdx
	}
	newNodes := make([]Node, len(order))
	for newIdx, oldIdx := range order {
		nd := q.Nodes[oldIdx]
		if nd.Parent != -1 {
			nd.Parent = oldToNew[nd.Parent]
		}
		newNodes[newIdx] = nd
	}
	q.Nodes = newNodes
	if q.Dist >= 0 && q.Dist < n {
		q.Dist = oldToNew[q.Dist]
	} else {
		q.Dist = 0
	}
}

// String renders the query in the paper's XPath-like syntax.
func (q *Query) String() string {
	var render func(i int) string
	render = func(i int) string {
		n := q.Nodes[i]
		var sb strings.Builder
		sb.WriteString(n.Tag)
		var preds []string
		for _, v := range n.Values {
			preds = append(preds, fmt.Sprintf("@%s %s %s", v.Attr, v.Op, v.Value))
		}
		for _, e := range n.Contains {
			preds = append(preds, ".contains("+e.Canon()+")")
		}
		for _, c := range q.Children(i) {
			preds = append(preds, "."+q.Nodes[c].Axis.String()+render(c))
		}
		if len(preds) > 0 {
			sb.WriteString("[" + strings.Join(preds, " and ") + "]")
		}
		return sb.String()
	}
	s := "//" + render(0)
	if q.Dist != 0 {
		s += fmt.Sprintf(" (answers: $%d)", q.Nodes[q.Dist].ID)
	}
	return s
}

// Canon returns a canonical serialization of the query, independent of
// node storage order and of variable IDs' numeric values. Two queries with
// the same Canon are isomorphic (same shape, tags, axes, predicates and
// distinguished position).
func (q *Query) Canon() string {
	var render func(i int) string
	render = func(i int) string {
		n := q.Nodes[i]
		var sb strings.Builder
		if n.Parent != -1 {
			// The root's axis is meaningless (it has no parent) and must
			// not distinguish otherwise-identical queries.
			sb.WriteString(n.Axis.String())
		}
		sb.WriteString(n.Tag)
		if n.Weight > 0 {
			fmt.Fprintf(&sb, "^%g", n.Weight)
		}
		var preds []string
		for _, v := range n.Values {
			preds = append(preds, "v:"+v.String())
		}
		for _, e := range n.Contains {
			preds = append(preds, "c:"+e.Canon())
		}
		sort.Strings(preds)
		if i == q.Dist {
			preds = append(preds, "!dist")
		}
		var kids []string
		for _, c := range q.Children(i) {
			kids = append(kids, render(c))
		}
		sort.Strings(kids)
		sb.WriteString("[" + strings.Join(preds, ";") + "]")
		sb.WriteString("(" + strings.Join(kids, "") + ")")
		return sb.String()
	}
	return render(0)
}

// HasContains reports whether any node carries a contains predicate.
func (q *Query) HasContains() bool {
	for i := range q.Nodes {
		if len(q.Nodes[i].Contains) > 0 {
			return true
		}
	}
	return false
}

// NumContains returns the total number of contains predicates, the "m" of
// the Combined-scheme pruning rule in §5.1.
func (q *Query) NumContains() int {
	n := 0
	for i := range q.Nodes {
		n += len(q.Nodes[i].Contains)
	}
	return n
}

// AncestorOf reports whether node a is a proper ancestor of node b (by
// index).
func (q *Query) AncestorOf(a, b int) bool {
	for p := q.Nodes[b].Parent; p != -1; p = q.Nodes[p].Parent {
		if p == a {
			return true
		}
	}
	return false
}
