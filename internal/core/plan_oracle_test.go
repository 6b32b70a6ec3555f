package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flexpath/internal/exec"
	"flexpath/internal/ir"
	"flexpath/internal/rank"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

// nestedLoop is the meaning of a scored join plan, by brute force: every
// variable's candidates come from a scan of the whole document, and
// tuples are enumerated in variable order with candidates in document
// order. A required variable is bound to a node with its tag, value and
// required contains predicates that stands in its Rel to the anchor's
// binding and passes its Checks. An optional variable is bound under its
// anchor when some node qualifies and stays unbound otherwise; when no
// later variable refers to it, only its first best-scoring binding is
// kept (the others are dominated). A tuple's structural score is
// Base - DroppedPenalty + the penalties it earns back and its keyword
// score the weighted required contains scores, each summed in variable
// order. The first best tuple per distinguished node is its answer.
//
// It knows nothing of leaf construction, semijoin reduction, skipped
// variables, candidate scoping or arenas, so exec.Run over any plan must
// agree with it bit for bit. work bounds the tuples it may build; ok is
// false when the plan needs more.
func nestedLoop(p *exec.Plan, scheme rank.Scheme, work int) (answers []exec.Answer, ok bool) {
	doc := p.Doc
	cands := make([][]xmltree.NodeID, len(p.Vars))
	for vi := range p.Vars {
		v := &p.Vars[vi]
		tags := v.Tags
		if len(tags) == 0 {
			tags = []string{v.Tag}
		}
	nodes:
		for m := xmltree.NodeID(0); int(m) < doc.Len(); m++ {
			if !slices.Contains(tags, doc.TagName(m)) {
				continue
			}
			for _, vp := range v.Values {
				if !exec.EvalValuePred(doc, m, vp) {
					continue nodes
				}
			}
			for _, c := range v.Contains {
				if c.Required && !c.Res.Satisfies(m) {
					continue nodes
				}
			}
			cands[vi] = append(cands[vi], m)
		}
	}
	referenced := make([]bool, len(p.Vars))
	for vi := range p.Vars {
		for _, b := range p.Vars[vi].Bonus {
			referenced[b.Other] = true
		}
		for _, c := range p.Vars[vi].Checks {
			referenced[c.Other] = true
		}
	}
	holds := func(parent bool, anc, desc xmltree.NodeID) bool {
		if anc == xmltree.InvalidNode {
			return false
		}
		if parent {
			return doc.IsParent(anc, desc)
		}
		return doc.IsAncestor(anc, desc)
	}

	type tuple struct {
		bind         []xmltree.NodeID
		regained, ks float64
		sig          uint64
	}
	bind := func(t tuple, vi int, m xmltree.NodeID) tuple {
		v := &p.Vars[vi]
		nt := tuple{bind: slices.Clone(t.bind), regained: t.regained, ks: t.ks, sig: t.sig}
		nt.bind[vi] = m
		for _, b := range v.Bonus {
			anc, desc := m, t.bind[b.Other]
			if b.OtherIsAncestor {
				anc, desc = desc, m
			}
			if desc != xmltree.InvalidNode && holds(b.Parent, anc, desc) {
				nt.regained += b.Penalty
				nt.sig |= 1 << b.Bit
			}
		}
		for _, c := range v.Contains {
			if c.Required {
				nt.ks += c.Weight * c.Res.ScoreWithin(m)
			} else if c.Res.Satisfies(m) {
				nt.regained += c.Penalty
				nt.sig |= 1 << c.Bit
			}
		}
		return nt
	}

	baseSS := p.Base - p.DroppedPenalty
	best := map[xmltree.NodeID]exec.Answer{}
	var enumerate func(vi int, t tuple) bool
	enumerate = func(vi int, t tuple) bool {
		if work--; work < 0 {
			return false
		}
		if vi == len(p.Vars) {
			n := t.bind[p.DistVar]
			sc := rank.Score{SS: baseSS + t.regained, KS: t.ks}
			if prev, seen := best[n]; !seen || sc.Compare(prev.Score, scheme) > 0 {
				best[n] = exec.Answer{Node: n, Score: sc, Sig: t.sig}
			}
			return true
		}
		v := &p.Vars[vi]
		var next []tuple
	candidates:
		for _, m := range cands[vi] {
			switch v.Rel {
			case exec.RelParent:
				if !holds(true, t.bind[v.Anchor], m) {
					continue
				}
			case exec.RelAncestor, exec.RelOptional:
				if !holds(false, t.bind[v.Anchor], m) {
					continue
				}
			}
			for _, c := range v.Checks {
				if !holds(c.Parent, t.bind[c.Other], m) {
					continue candidates
				}
			}
			next = append(next, bind(t, vi, m))
		}
		if v.Rel == exec.RelOptional {
			switch {
			case len(next) == 0:
				next = []tuple{{bind: slices.Clone(t.bind), regained: t.regained, ks: t.ks, sig: t.sig}}
			case !referenced[vi]:
				top := next[0]
				for _, e := range next[1:] {
					if (rank.Score{SS: e.regained, KS: e.ks}).Compare(rank.Score{SS: top.regained, KS: top.ks}, scheme) > 0 {
						top = e
					}
				}
				next = []tuple{top}
			}
		}
		for _, e := range next {
			if !enumerate(vi+1, e) {
				return false
			}
		}
		return true
	}
	unbound := make([]xmltree.NodeID, len(p.Vars))
	for i := range unbound {
		unbound[i] = xmltree.InvalidNode
	}
	if !enumerate(0, tuple{bind: unbound}) {
		return nil, false
	}
	for _, a := range best {
		answers = append(answers, a)
	}
	slices.SortFunc(answers, func(x, y exec.Answer) int {
		if c := x.Score.Compare(y.Score, scheme); c != 0 {
			return -c
		}
		return int(x.Node) - int(y.Node)
	})
	return answers, true
}

// sampledXMarkTPQ draws a 2-7 node twig from the document itself: a
// random element and random descendants of the nodes drawn so far, each
// under a child edge when it is a child (two times in three) and a
// descendant edge otherwise. Every such query has an exact match, so
// every relaxation level has answers whose scores and signatures can
// differ; most of randomXMarkTPQ's queries match nothing.
func sampledXMarkTPQ(r *rand.Rand, doc *xmltree.Document) *tpq.Query {
	exprs := []ir.Expr{ir.MustParseExpr(`"gold"`), ir.MustParseExpr(`"vintage" or "walnut"`)}
	for {
		root := xmltree.NodeID(r.Intn(doc.Len()))
		if doc.End(root)-root < 3 {
			continue
		}
		picked := []xmltree.NodeID{root}
		q := &tpq.Query{Nodes: []tpq.Node{{ID: 1, Tag: doc.TagName(root), Parent: -1}}}
		for n := 2 + r.Intn(6); len(picked) < n; {
			pi := r.Intn(len(picked))
			a := picked[pi]
			if doc.End(a) == a {
				continue
			}
			d := a + 1 + xmltree.NodeID(r.Intn(int(doc.End(a)-a)))
			node := tpq.Node{ID: len(picked) + 1, Tag: doc.TagName(d), Parent: pi}
			if doc.Parent(d) != a || r.Intn(3) == 0 {
				node.Axis = tpq.Descendant
			}
			picked = append(picked, d)
			q.Nodes = append(q.Nodes, node)
		}
		if r.Intn(2) == 0 {
			at := r.Intn(len(q.Nodes))
			q.Nodes[at].Contains = append(q.Nodes[at].Contains, exprs[r.Intn(len(exprs))])
		}
		q.Dist = r.Intn(len(q.Nodes))
		q.Normalize()
		return q
	}
}

// randomPlan builds a plan directly over a twig drawn by sampledXMarkTPQ,
// in shapes chains produce and shapes they do not: the first variables in
// pre-order are required and anchor at their twig parent or at a higher
// ancestor, in which case the skipped parent comes back as a check or a
// bonus predicate; the rest are optional under their nearest required
// ancestor, with a bonus against their twig parent. Any variable may carry
// a required or an optional contains predicate.
func randomPlan(r *rand.Rand, f *fixture) *exec.Plan {
	q := sampledXMarkTPQ(r, f.doc)
	gold := f.ix.Eval(ir.MustParseExpr(`"gold"`))
	penalties := []float64{0.25, 1.0 / 3, 0.5, 1}
	plan := &exec.Plan{Doc: f.doc, Base: 4, FirstOptional: 1 + r.Intn(len(q.Nodes))}
	bit := uint(0)
	relax := func() (float64, uint) {
		pen := penalties[r.Intn(len(penalties))]
		plan.DroppedPenalty += pen
		bit++
		return pen, bit - 1
	}
	for i, n := range q.Nodes {
		v := exec.VarSpec{VarID: n.ID, Tag: n.Tag, Anchor: n.Parent}
		switch {
		case n.Parent == -1:
			v.Rel = exec.RelRoot
		case i >= plan.FirstOptional:
			v.Rel = exec.RelOptional
			for v.Anchor >= plan.FirstOptional {
				v.Anchor = q.Nodes[v.Anchor].Parent
			}
			if r.Intn(2) == 0 {
				pen, b := relax()
				v.Bonus = append(v.Bonus, exec.BonusPred{Other: n.Parent, OtherIsAncestor: true,
					Parent: n.Axis == tpq.Child, Penalty: pen, Bit: b})
			}
		case q.Nodes[n.Parent].Parent != -1 && r.Intn(3) == 0:
			// Anchored above the parent, as after a promotion.
			v.Rel = exec.RelAncestor
			v.Anchor = q.Nodes[n.Parent].Parent
			if r.Intn(2) == 0 {
				v.Checks = append(v.Checks, exec.StructCheck{Other: n.Parent, Parent: n.Axis == tpq.Child})
			} else {
				pen, b := relax()
				v.Bonus = append(v.Bonus, exec.BonusPred{Other: n.Parent, OtherIsAncestor: true,
					Parent: n.Axis == tpq.Child, Penalty: pen, Bit: b})
			}
		case n.Axis == tpq.Child:
			v.Rel = exec.RelParent
		default:
			v.Rel = exec.RelAncestor
		}
		if r.Intn(4) == 0 {
			if i < plan.FirstOptional && r.Intn(2) == 0 {
				v.Contains = append(v.Contains, exec.ContainsSpec{Res: gold, Required: true, Weight: 0.5})
			} else {
				pen, b := relax()
				v.Contains = append(v.Contains, exec.ContainsSpec{Res: gold, Penalty: pen, Bit: b})
			}
		}
		plan.Vars = append(plan.Vars, v)
	}
	plan.DistVar = r.Intn(plan.FirstOptional)
	plan.NumBits = int(bit)
	return plan
}

// TestPlanRunMatchesNestedLoop holds exhaustive exec.Run to the
// brute-force nestedLoop: the same answers in the same order, with
// bit-identical scores and signatures. The plans are those of every level
// of random queries' chains, in both shapes (the scored PlanAt and DPO's
// ExactPlanAt), and randomPlan's. It pins what the semijoin reduction and
// the skipping of existential variables may not change: a skip rule that
// ignored a variable's Checks or another variable's Bonus reference fails
// it.
func TestPlanRunMatchesNestedLoop(t *testing.T) {
	f := xmarkFixture(t, 48<<10, 5)
	queries, plans := 150, 500
	if testing.Short() {
		queries, plans = 40, 100
	}
	r := rand.New(rand.NewSource(31))
	checked, tooBig := 0, 0
	check := func(what string, plan *exec.Plan) {
		t.Helper()
		for _, scheme := range []rank.Scheme{rank.StructureFirst, rank.KeywordFirst, rank.Combined} {
			want, ok := nestedLoop(plan, scheme, 20_000)
			if !ok {
				tooBig++
				continue
			}
			checked++
			got := exec.Run(plan, exec.Options{Scheme: scheme})
			if d := diffAnswers(got, want); d != "" {
				t.Fatalf("%s, scheme %v: %s\n%s", what, scheme, d, plan.Explain())
			}
		}
	}
	for i := 0; i < queries; i++ {
		q := randomXMarkTPQ(r)
		if i%2 == 1 {
			q = sampledXMarkTPQ(r, f.doc)
		}
		c, err := BuildChain(f.doc, f.ix, f.st, rank.UniformWeights(), q)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= c.Len(); j++ {
			for shape, build := range []func(int) (*exec.Plan, error){c.PlanAt, c.ExactPlanAt} {
				plan, err := build(j)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s, level %d, %s", q, j, [...]string{"PlanAt", "ExactPlanAt"}[shape]), plan)
			}
		}
	}
	for i := 0; i < plans; i++ {
		check(fmt.Sprintf("random plan %d", i), randomPlan(r, f))
	}
	if tooBig*10 > checked {
		t.Errorf("%d plans checked, %d too large for the nested loop", checked, tooBig)
	}
	t.Logf("%d plans checked, %d too large for the nested loop", checked, tooBig)
}

func diffAnswers(got, want []exec.Answer) string {
	for i := range min(len(got), len(want)) {
		g, w := got[i], want[i]
		if g.Node != w.Node || math.Float64bits(g.Score.SS) != math.Float64bits(w.Score.SS) ||
			math.Float64bits(g.Score.KS) != math.Float64bits(w.Score.KS) || g.Sig != w.Sig {
			return fmt.Sprintf("answer %d: got %+v, want %+v", i, g, w)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("got %d answers, want %d", len(got), len(want))
	}
	return ""
}
