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
// variable's candidates come from a scan of the whole document, and the
// tuples are extended one variable at a time, candidates in document
// order. A required variable is bound to a node with its tag, value and
// required contains predicates that stands in its Rel to the anchor's
// binding and passes its Checks. An optional variable is bound under its
// anchor when some node qualifies and stays unbound otherwise. A tuple's
// structural score is Base - DroppedPenalty + the penalties it earns back
// and its keyword score the weighted required contains scores, each summed
// in variable order.
//
// An answer's score is the best over its bindings, taken step by step. A
// variable reads its anchor and the other side of its checks and bonus
// predicates, and the answer reads the distinguished variable. When no
// later variable reads the one just bound, each tuple keeps only its best
// extension. After a variable that is the last reader of an earlier one
// (the last variable aside), the tuples that agree on every binding still
// read keep only the best. Both compare what the tuples earned, penalties
// and keyword score, under the scheme; the answers then compare full
// scores, one per distinguished node. Ties go to the least binding
// vector, the first in document order.
//
// In exact arithmetic a tuple kept this way ends at least as well as the
// ones it displaced, and this is fullEnumeration's maximum. In floats,
// addition is monotone in each score component alone: the kept tuple
// ends with at least their structural score under StructureFirst and at
// least their keyword score under KeywordFirst, so that component of an
// answer is the full maximum bit for bit. The ranking can still differ.
// Under Combined a step compares regained+ks and the answer
// (base+regained)+ks, so a lead of a few ulps can turn into a deficit;
// under a lexicographic scheme, a lead in the first component that
// adding base absorbs leaves the second to decide. Run is held to
// fullEnumeration as well, within a few ulps of the scheme's total.
//
// It knows nothing of leaf construction, semijoin reduction, skipped
// variables, candidate scoping, early stops or arenas, so exec.Run over
// any plan must agree with it bit for bit. work bounds the tuples it may
// build; ok is false when the plan needs more.
func nestedLoop(p *exec.Plan, scheme rank.Scheme, work int) (answers []exec.Answer, ok bool) {
	doc := p.Doc
	nv := len(p.Vars)
	cands := make([][]xmltree.NodeID, nv)
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
	last := make([]int, nv) // the last variable reading each one, or -1
	for i := range last {
		last[i] = -1
	}
	for vi := range p.Vars {
		v := &p.Vars[vi]
		if v.Anchor >= 0 {
			last[v.Anchor] = vi
		}
		for _, b := range v.Bonus {
			last[b.Other] = vi
		}
		for _, c := range v.Checks {
			last[c.Other] = vi
		}
	}
	last[p.DistVar] = nv
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
	earned := func(t tuple) rank.Score { return rank.Score{SS: t.regained, KS: t.ks} }
	scored := func(t tuple) rank.Score { return rank.Score{SS: baseSS + t.regained, KS: t.ks} }
	// best keeps, per group, the tuple score ranks best, the least binding
	// vector on ties, in order of the groups' first tuples.
	best := func(ts []tuple, group func(tuple) string, score func(tuple) rank.Score) []tuple {
		var out []tuple
		at := map[string]int{}
		for _, t := range ts {
			g := group(t)
			i, seen := at[g]
			if !seen {
				at[g] = len(out)
				out = append(out, t)
				continue
			}
			c := score(t).Compare(score(out[i]), scheme)
			if c > 0 || c == 0 && slices.Compare(t.bind, out[i].bind) < 0 {
				out[i] = t
			}
		}
		return out
	}
	keyOf := func(vars []int) func(tuple) string {
		return func(t tuple) string {
			b := make([]byte, 0, 4*len(vars))
			for _, u := range vars {
				b = fmt.Appendf(b, "%d,", t.bind[u])
			}
			return string(b)
		}
	}

	unbound := make([]xmltree.NodeID, nv)
	for i := range unbound {
		unbound[i] = xmltree.InvalidNode
	}
	tuples := []tuple{{bind: unbound}}
	for vi := range p.Vars {
		v := &p.Vars[vi]
		var next []tuple
		for _, t := range tuples {
			var ext []tuple
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
				if work--; work < 0 {
					return nil, false
				}
				ext = append(ext, bind(t, vi, m))
			}
			switch {
			case len(ext) == 0 && v.Rel == exec.RelOptional:
				ext = []tuple{t}
			case len(ext) > 1 && last[vi] < 0:
				ext = best(ext, func(tuple) string { return "" }, earned)
			}
			next = append(next, ext...)
		}
		if vi < nv-1 && slices.Contains(last[:vi], vi) {
			var read []int
			for u := 0; u <= vi; u++ {
				if last[u] > vi {
					read = append(read, u)
				}
			}
			next = best(next, keyOf(read), earned)
		}
		tuples = next
	}
	for _, t := range best(tuples, keyOf([]int{p.DistVar}), scored) {
		answers = append(answers, exec.Answer{Node: t.bind[p.DistVar], Score: scored(t), Sig: t.sig})
	}
	slices.SortFunc(answers, func(x, y exec.Answer) int {
		if c := x.Score.Compare(y.Score, scheme); c != 0 {
			return -c
		}
		return int(x.Node) - int(y.Node)
	})
	return answers, true
}

// fullEnumeration is the maximum over every complete binding, the
// second reference: every variable's candidates come from a scan of the
// whole document, and tuples are enumerated in variable order with
// candidates in document order. A required variable is bound to a node with its tag, value and
// required contains predicates that stands in its Rel to the anchor's
// binding and passes its Checks. An optional variable is bound under its
// anchor when some node qualifies and stays unbound otherwise; when no
// later variable refers to it, only its first best-scoring binding is
// kept (the others are dominated). A tuple's structural score is
// Base - DroppedPenalty + the penalties it earns back and its keyword
// score the weighted required contains scores, each summed in variable
// order. The first best tuple per distinguished node is its answer.
//
// In exact arithmetic this is nestedLoop's answer; in floats the two
// may differ where rounding decides, and exec.Run is held to it within a
// few ulps (see roundingDiffs). work bounds the tuples it may build; ok
// is false when the plan needs more.
func fullEnumeration(p *exec.Plan, scheme rank.Scheme, work int) (answers []exec.Answer, ok bool) {
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
// ancestor, with a bonus against their twig parent, which may itself be
// optional. A variable may carry ad bonuses to every twig ancestor, and a
// required one may be scoped by the twig root alone and only carry
// bonuses (as XQ3's keyword after promotions). Any variable may carry a
// required or an optional contains predicate. Penalties include 0 and
// 1e-12, so ties and rounding are exercised. Half the plans end with an
// optional variable no other one reads, scored in place over every node
// under the root binding with the tag of some node below a root-tagged
// one, with bonuses to other variables on both sides (its candidates in
// their subtrees and on their paths to the root), half of them with
// penalty 0, so that candidates earning a bonus tie with those earning
// none.
func randomPlan(r *rand.Rand, f *fixture) *exec.Plan {
	q := sampledXMarkTPQ(r, f.doc)
	gold := f.ix.Eval(ir.MustParseExpr(`"gold"`))
	penalties := []float64{0, 1e-12, 0.25, 1.0 / 3, 0.5, 1}
	plan := &exec.Plan{Doc: f.doc, Base: 4, FirstOptional: 1 + r.Intn(len(q.Nodes))}
	bit := uint(0)
	bonus := func(v *exec.VarSpec, other int, parent bool) {
		pen := penalties[r.Intn(len(penalties))]
		plan.DroppedPenalty += pen
		v.Bonus = append(v.Bonus, exec.BonusPred{Other: other, OtherIsAncestor: true,
			Parent: parent, Penalty: pen, Bit: bit})
		bit++
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
				bonus(&v, n.Parent, n.Axis == tpq.Child)
			}
		case q.Nodes[n.Parent].Parent != -1 && r.Intn(4) == 0:
			// Scoped by the root alone, every edge up to it relaxed: the
			// variable only earns penalties back.
			v.Rel = exec.RelAncestor
			v.Anchor = 0
			bonus(&v, n.Parent, n.Axis == tpq.Child)
		case q.Nodes[n.Parent].Parent != -1 && r.Intn(3) == 0:
			// Anchored above the parent, as after a promotion.
			v.Rel = exec.RelAncestor
			v.Anchor = q.Nodes[n.Parent].Parent
			if r.Intn(2) == 0 {
				v.Checks = append(v.Checks, exec.StructCheck{Other: n.Parent, Parent: n.Axis == tpq.Child})
			} else {
				bonus(&v, n.Parent, n.Axis == tpq.Child)
			}
		case n.Axis == tpq.Child:
			v.Rel = exec.RelParent
		default:
			v.Rel = exec.RelAncestor
		}
		if n.Parent != -1 && r.Intn(3) == 0 {
			// ad bonuses to every twig ancestor above the parent, implied by
			// the anchor chain or not.
			for a := q.Nodes[n.Parent].Parent; a != -1; a = q.Nodes[a].Parent {
				bonus(&v, a, false)
			}
		}
		if r.Intn(4) == 0 {
			if i < plan.FirstOptional && r.Intn(2) == 0 {
				v.Contains = append(v.Contains, exec.ContainsSpec{Res: gold, Required: true, Weight: 0.5})
			} else {
				pen := penalties[r.Intn(len(penalties))]
				plan.DroppedPenalty += pen
				v.Contains = append(v.Contains, exec.ContainsSpec{Res: gold, Penalty: pen, Bit: bit})
				bit++
			}
		}
		plan.Vars = append(plan.Vars, v)
	}
	if r.Intn(2) == 0 {
		// The tag of a node below one with the root's tag.
		roots := f.doc.NodesWithTag(q.Nodes[0].Tag)
		a := roots[r.Intn(len(roots))]
		tag := q.Nodes[len(q.Nodes)-1].Tag
		if f.doc.End(a) > a {
			tag = f.doc.TagName(a + 1 + xmltree.NodeID(r.Intn(int(f.doc.End(a)-a))))
		}
		v := exec.VarSpec{VarID: len(q.Nodes) + 1, Tag: tag, Anchor: 0, Rel: exec.RelOptional}
		for other := range plan.Vars {
			if r.Intn(3) == 0 {
				continue
			}
			pen := 0.0
			if r.Intn(2) == 0 {
				pen = penalties[r.Intn(len(penalties))]
			}
			plan.DroppedPenalty += pen
			v.Bonus = append(v.Bonus, exec.BonusPred{Other: other, OtherIsAncestor: r.Intn(2) == 0,
				Parent: r.Intn(3) == 0, Penalty: pen, Bit: bit})
			bit++
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
// it. Run is also held to fullEnumeration within a few ulps.
func TestPlanRunMatchesNestedLoop(t *testing.T) {
	f := xmarkFixture(t, 48<<10, 5)
	queries, plans := 150, 500
	if testing.Short() {
		queries, plans = 40, 100
	}
	r := rand.New(rand.NewSource(31))
	checked, tooBig := 0, 0
	var full fullTally
	check := func(what string, plan *exec.Plan) {
		t.Helper()
		for _, scheme := range []rank.Scheme{rank.StructureFirst, rank.KeywordFirst, rank.Combined} {
			ref := newReferences(plan, scheme)
			if !ref.nestedOK {
				tooBig++
				continue
			}
			checked++
			got := exec.Run(plan, exec.Options{Scheme: scheme})
			if d := diffAnswers(got, ref.nested); d != "" {
				t.Fatalf("%s, scheme %v: %s\n%s", what, scheme, d, plan.Explain())
			}
			if d := full.check(ref, scheme, 0, got); d != "" {
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
	full.report(t)
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

// references are the two reference rankings of one (plan, scheme):
// nestedLoop's, and fullEnumeration's when the nested loop's fits (only
// then is it compared). Neither depends on K or the organization, so one
// pair serves every run of the plan under the scheme.
type references struct {
	nested, full     []exec.Answer
	nestedOK, fullOK bool
}

func newReferences(plan *exec.Plan, scheme rank.Scheme) references {
	var ref references
	ref.nested, ref.nestedOK = nestedLoop(plan, scheme, 20_000)
	if ref.nestedOK {
		ref.full, ref.fullOK = fullEnumeration(plan, scheme, 200_000)
	}
	return ref
}

// topKMismatch runs plan with K = k in one organization and compares the
// answers with the first k of ref's nested-loop ranking (all of them when
// k is 0), bit for bit, and with its full enumeration within a few ulps
// (full counts them). It reports "" when they agree or the plan is too
// large for the nested loop.
func topKMismatch(plan *exec.Plan, scheme rank.Scheme, ref references, k int, mode exec.Mode, full *fullTally) string {
	if !ref.nestedOK {
		return ""
	}
	want := ref.nested
	if k > 0 && len(want) > k {
		want = want[:k]
	}
	got := exec.Run(plan, exec.Options{K: k, Scheme: scheme, Mode: mode})
	d := diffAnswers(got, want)
	if d == "" {
		d = full.check(ref, scheme, k, got)
	}
	if d != "" {
		return fmt.Sprintf("scheme %v, K = %d, mode %d: %s\n%s", scheme, k, mode, d, plan.Explain())
	}
	return ""
}

// fewUlps is how far apart rounding may put the scheme totals of Run's
// answer and fullEnumeration's at one rank, in ulps of the larger.
const fewUlps = 8

func nearTotal(a, b float64) bool {
	m := max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= fewUlps*(math.Nextafter(m, math.Inf(1))-m)
}

// fullTally counts Run's answers compared with fullEnumeration's, those
// that differ within rounding, and the plans too large to enumerate.
type fullTally struct{ answers, rounded, tooBig int }

// check holds got, Run's answers at K = k, to ref's full enumeration or
// its first k. At each rank the two agree bit for bit, or their scheme
// totals are a few ulps apart; in that case got's node must be one full
// enumeration ranks, with a total a few ulps from its own there and a
// score no better than it (fullEnumeration takes the maximum). Such ranks
// are counted in rounded.
func (f *fullTally) check(ref references, scheme rank.Scheme, k int, got []exec.Answer) string {
	all := ref.full
	if !ref.fullOK {
		f.tooBig++
		return ""
	}
	want := all
	if k > 0 && len(want) > k {
		want = want[:k]
	}
	if len(got) != len(want) {
		return fmt.Sprintf("got %d answers, full enumeration %d", len(got), len(want))
	}
	byNode := make(map[xmltree.NodeID]exec.Answer, len(all))
	for _, a := range all {
		byNode[a.Node] = a
	}
	f.answers += len(got)
	for i, g := range got {
		w := want[i]
		if diffAnswers(got[i:i+1], want[i:i+1]) == "" {
			continue
		}
		own, ranked := byNode[g.Node]
		if !ranked || !nearTotal(g.Score.Total(scheme), w.Score.Total(scheme)) ||
			!nearTotal(g.Score.Total(scheme), own.Score.Total(scheme)) || g.Score.Compare(own.Score, scheme) > 0 {
			return fmt.Sprintf("answer %d: got %+v, full enumeration %+v (%+v for node %d)", i, g, w, own, g.Node)
		}
		f.rounded++
	}
	return ""
}

func (f *fullTally) report(t *testing.T) {
	t.Logf("full enumeration: %d answers compared, %d differ within %d ulps; %d plans too large",
		f.answers, f.rounded, fewUlps, f.tooBig)
}

// TestPlanRunTopKMatchesNestedLoop holds exec.Run at K = 0, 1 and 10, in
// both organizations, to the nested loop's ranking or its prefix, bit for
// bit, signatures included, on randomPlan's plans: pruning, the SSO resort
// and Hybrid's buckets may not change which binding an answer keeps.
func TestPlanRunTopKMatchesNestedLoop(t *testing.T) {
	f := xmarkFixture(t, 48<<10, 5)
	plans := 300
	if testing.Short() {
		plans = 80
	}
	r := rand.New(rand.NewSource(77))
	var full fullTally
	for i := range plans {
		plan := randomPlan(r, f)
		for _, scheme := range []rank.Scheme{rank.StructureFirst, rank.KeywordFirst, rank.Combined} {
			ref := newReferences(plan, scheme)
			for _, k := range []int{0, 1, 10} {
				for _, mode := range []exec.Mode{exec.ModeSorted, exec.ModeBuckets} {
					if d := topKMismatch(plan, scheme, ref, k, mode, &full); d != "" {
						t.Fatalf("random plan %d, %s", i, d)
					}
				}
			}
		}
	}
	full.report(t)
}

// FuzzPlanRunMatchesNestedLoop turns fuzz bytes into a randomPlan seed, a
// scheme, a K and an organization, and holds exec.Run to nestedLoop bit
// for bit and to fullEnumeration within a few ulps.
func FuzzPlanRunMatchesNestedLoop(f *testing.F) {
	fx := xmarkFixture(f, 48<<10, 5)
	for _, seed := range []int64{1, 7, 31, 77, 1234} {
		f.Add(seed, uint8(seed), uint8(seed>>3))
	}
	schemes := []rank.Scheme{rank.StructureFirst, rank.KeywordFirst, rank.Combined}
	f.Fuzz(func(t *testing.T, seed int64, scheme, k uint8) {
		plan := randomPlan(rand.New(rand.NewSource(seed)), fx)
		mode, sc := exec.Mode(k>>7), schemes[int(scheme)%len(schemes)]
		if d := topKMismatch(plan, sc, newReferences(plan, sc), int(k&127)%12, mode, &fullTally{}); d != "" {
			t.Fatal(d)
		}
	})
}
