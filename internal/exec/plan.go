package exec

import (
	"context"
	"slices"
	"sync"

	"flexpath/internal/ir"
	"flexpath/internal/rank"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

// Rel is the required structural relationship between a plan variable and
// its anchor variable.
type Rel int8

const (
	// RelRoot marks the pattern root: candidates are all nodes with the
	// variable's tag.
	RelRoot Rel = iota
	// RelParent requires the binding to be a child of the anchor binding.
	RelParent
	// RelAncestor requires the binding to be a descendant of the anchor
	// binding (possibly a non-parent ancestor after subtree promotion).
	RelAncestor
	// RelOptional allows the variable to stay unbound (its connecting
	// predicates were all dropped, i.e. the node was deleted by
	// relaxation); when bound it must be a descendant of the anchor.
	RelOptional
)

// BonusPred is a dropped structural predicate that, when satisfied by a
// tuple's bindings, earns its penalty back. It is attached to whichever of
// its two variables joins later; Other indexes the earlier one.
type BonusPred struct {
	Other           int
	OtherIsAncestor bool
	Parent          bool // parent-child check (pc); otherwise ancestor (ad)
	Penalty         float64
	Bit             uint
}

// ContainsSpec is one contains predicate evaluated at a plan variable.
// Required specs filter candidates and contribute to the keyword score;
// optional specs (dropped by contains promotion or node deletion) earn
// their penalty back when still satisfied.
type ContainsSpec struct {
	Res      *ir.Result
	Required bool
	Weight   float64 // keyword-score weight (required specs)
	Penalty  float64 // structural regain (optional specs)
	Bit      uint
}

// StructCheck is a required structural predicate against an
// earlier-joined variable that is not implied by the candidate scope (it
// arises when a variable keeps ad predicates to several ancestors whose
// bindings need not nest, e.g. after a promotion higher up the pattern).
type StructCheck struct {
	Other  int  // plan-variable index of the ancestor side
	Parent bool // parent-child check; otherwise ancestor-descendant
}

// VarSpec is one variable of a scored join plan.
type VarSpec struct {
	VarID int
	Tag   string
	// Tags, when non-empty, lists alternative tags the variable matches
	// (the tag plus its subtypes under a type hierarchy); it overrides
	// Tag for candidate selection.
	Tags     []string
	Values   []tpq.ValuePred
	Anchor   int // plan-variable index of the anchor; -1 for the root
	Rel      Rel
	Checks   []StructCheck
	Bonus    []BonusPred
	Contains []ContainsSpec
}

// Plan is a left-deep scored join plan: the original query with a chosen
// set of relaxations encoded as weakened or optional predicates (§5.2.1,
// Figure 8). Variables are ordered required-first, ancestors before
// descendants, so anchors always precede their dependents.
type Plan struct {
	Doc  *xmltree.Document
	Vars []VarSpec
	// DistVar indexes the distinguished variable (always required).
	DistVar int
	// Base is the structural score of an exact answer; DroppedPenalty is
	// the sum of all encoded relaxations' penalties. A tuple's structural
	// score is Base - DroppedPenalty + (penalties earned back).
	Base           float64
	DroppedPenalty float64
	// NumBits is the number of distinct signature bits in use.
	NumBits int
	// FirstOptional is the index of the first optional variable; all
	// variables from it onward are optional.
	FirstOptional int

	// leafOnce/leafLists memoize the per-variable candidate lists, already
	// semijoin-reduced (see Plan.leaves), and skip marks the existential
	// variables Run never joins. A plan shared across searches by the
	// plan-template cache pays leaf evaluation and reduction once; later
	// runs of the same plan reuse the lists. The memo is sound because a
	// plan is immutable once built, the document is immutable, and Run
	// never mutates the lists (joins only read them). Plans must not be
	// copied by value once used.
	leafOnce  sync.Once
	leafLists [][]xmltree.NodeID
	skip      []bool
}

// leaves returns the memoized per-variable candidate lists, evaluating
// them on first use (the evaluateLeaf of the paper's Hybrid pseudo-code:
// the sorted nodes satisfying each variable's tag, value and required
// contains predicates).
//
// The required variables' lists are then reduced bottom-up, last to
// first: each anchor keeps only the nodes with a child (RelParent) or a
// descendant (RelAncestor) in its dependent's list. Required anchors form
// a tree and every anchor precedes its dependents, so afterwards every
// node left in a required list roots a complete match of the required
// sub-pattern below it, and the join builds no tuple that dies for want
// of a required binding further down. No top-down pass is needed:
// candidatesFor already scopes each candidate to its bound anchor.
// Checks are ignored, so the reduced lists are supersets of what
// complete tuples use and a tuple failing a check still dies in the join.
// Exclude is not applied here: it changes per DPO level, and the lists
// are per plan.
//
// The lists of existential variables (Plan.existential) are dropped after
// the reduction has used them: Run never joins those variables.
func (p *Plan) leaves() [][]xmltree.NodeID {
	p.leafOnce.Do(func() {
		ls := make([][]xmltree.NodeID, len(p.Vars))
		for vi := range p.Vars {
			ls[vi] = evaluateLeaf(p.Doc, &p.Vars[vi])
		}
		for vi := p.FirstOptional - 1; vi > 0; vi-- {
			v := &p.Vars[vi]
			var reduced []xmltree.NodeID
			switch v.Rel {
			case RelParent:
				reduced = SemiJoinHasChild(p.Doc, ls[v.Anchor], ls[vi])
			case RelAncestor:
				reduced = SemiJoinHasDescendant(p.Doc, ls[v.Anchor], ls[vi])
			default:
				continue
			}
			// A reduction that removes nothing keeps the original list,
			// which may be the document's own tag column: the memo then
			// holds no copy.
			if len(reduced) < len(ls[v.Anchor]) {
				ls[v.Anchor] = reduced
			}
		}
		p.skip = p.existential()
		for vi, s := range p.skip {
			if s {
				ls[vi] = nil
			}
		}
		p.leafLists = ls
	})
	return p.leafLists
}

// existential reports, per variable, whether it only has to exist: a
// required variable none of whose anchor subtree (itself included) is the
// distinguished variable, carries checks, bonus or contains predicates,
// is referred to by another variable's bonus or check, or anchors an
// optional variable. Once the bound anchor's list is reduced (see
// leaves), the anchor alone guarantees such a subtree a match, and the
// subtree adds nothing to a tuple's score or signature; Run skips its
// join steps. Every binding it would enumerate yields a duplicate of the
// same tuple, and Run keeps the best tuple per distinguished node anyway.
func (p *Plan) existential() []bool {
	nv := len(p.Vars)
	keep := make([]bool, nv)
	keep[p.DistVar] = true
	for vi := range p.Vars {
		v := &p.Vars[vi]
		if vi >= p.FirstOptional || v.Anchor < 0 ||
			len(v.Checks) > 0 || len(v.Bonus) > 0 || len(v.Contains) > 0 {
			keep[vi] = true
		}
		for _, b := range v.Bonus {
			keep[b.Other] = true
		}
		for _, c := range v.Checks {
			keep[c.Other] = true
		}
	}
	// A kept variable keeps its anchor chain; anchors precede dependents,
	// so one backward pass propagates it.
	for vi := nv - 1; vi > 0; vi-- {
		if a := p.Vars[vi].Anchor; keep[vi] && a >= 0 {
			keep[a] = true
		}
	}
	skip := make([]bool, nv)
	for vi := range skip {
		skip[vi] = !keep[vi]
	}
	return skip
}

// Mode selects the intermediate-result organization, the axis along which
// SSO and Hybrid differ (§5.2.2-5.2.3).
type Mode int8

const (
	// ModeSorted keeps the intermediate tuple list sorted by score after
	// every join, as SSO does; the sort cost is SSO's bottleneck.
	ModeSorted Mode = iota
	// ModeBuckets groups intermediate tuples into buckets keyed by the
	// set of satisfied predicates, as Hybrid does; no score sorting is
	// ever performed.
	ModeBuckets
)

// PipelineStats reports work counters from a plan execution.
type PipelineStats struct {
	JoinSteps       int
	TuplesGenerated int
	TuplesPruned    int
	SortOps         int
	SortedTuples    int
	Buckets         int
}

// StepTrace records what one join step of a plan execution did, for
// EXPLAIN ANALYZE style introspection.
type StepTrace struct {
	// Var describes the variable joined at this step.
	Var string
	// Candidates is the size of the variable's leaf (candidate list).
	Candidates int
	// TuplesIn/TuplesOut are the intermediate sizes around the join.
	TuplesIn  int
	TuplesOut int
	// Pruned counts tuples dropped by the score threshold at this step.
	Pruned int
	// Sorted reports whether the step re-sorted intermediates (SSO);
	// Buckets is the number of distinct signatures grouped (Hybrid).
	Sorted  bool
	Buckets int
}

// Options controls plan execution.
type Options struct {
	// Ctx, when non-nil, is observed by the join loops: execution stops
	// early (returning a truncated, possibly nil answer set) once the
	// context is cancelled. Callers that pass a context must check its
	// Err after Run to distinguish cancellation from an empty result.
	Ctx context.Context
	// K enables threshold pruning against the K-th best completable
	// answer and the Mode's organization of intermediate tuples, and
	// limits the answers returned to the K best; 0 evaluates exhaustively
	// and returns every answer (DPO's exact passes).
	K      int
	Scheme rank.Scheme
	Mode   Mode
	// Exclude drops candidates for the distinguished variable before they
	// join: DPO passes the answers of previous relaxation levels here so
	// that each level only computes new answers (the paper's §5.2.2
	// avoid-recomputation device, lifted to the distinguished node).
	Exclude map[xmltree.NodeID]bool
	// Stats, when non-nil, accumulates work counters.
	Stats *PipelineStats
	// Trace, when non-nil, receives one StepTrace per join step.
	Trace *[]StepTrace
	// Arena, when non-nil, supplies the scratch memory for intermediate
	// candidate lists, tuple buffers and binding blocks; Run only carves
	// from it and never resets it, so one arena can serve many Run calls
	// (the caller resets between relaxation levels / restarts). When nil,
	// Run borrows a pooled arena for the duration of the call.
	Arena *Arena
}

// Answer is a scored query answer: a binding of the distinguished variable
// together with the best score over all matches producing it, and the
// signature of satisfied optional predicates of that best match.
type Answer struct {
	Node  xmltree.NodeID
	Score rank.Score
	Sig   uint64
}

type tuple struct {
	bind     []xmltree.NodeID
	regained float64
	ks       float64
	sig      uint64
}

// Run executes the plan and returns the distinct distinguished-node
// answers, best score first under the chosen scheme, ties by node. With
// Options.K > 0 it returns only the K best of them (fewer when fewer
// exist): exactly the first K of the exhaustive ranking.
func Run(p *Plan, opts Options) []Answer {
	doc := p.Doc
	nv := len(p.Vars)
	st := opts.Stats
	if st == nil {
		st = &PipelineStats{}
	}
	// Hot loops index the document columns directly instead of calling
	// accessors per node.
	ends, parentCol := doc.Ends(), doc.Parents()
	ar := opts.Arena
	if ar == nil {
		ar = GetArena()
		defer PutArena(ar)
	}

	// Cancellation: a nil Done channel makes the select below a cheap
	// no-op, so searches without a context pay (almost) nothing.
	var done <-chan struct{}
	if opts.Ctx != nil {
		done = opts.Ctx.Done()
	}
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	// Per-variable maximum future gains, for threshold pruning.
	ssGain := make([]float64, nv+1)
	ksGain := make([]float64, nv+1)
	for i := nv - 1; i >= 0; i-- {
		v := &p.Vars[i]
		ss, ks := 0.0, 0.0
		for _, b := range v.Bonus {
			ss += b.Penalty
		}
		for _, c := range v.Contains {
			if c.Required {
				ks += c.Weight
			} else {
				ss += c.Penalty
			}
		}
		ssGain[i] = ssGain[i+1] + ss
		ksGain[i] = ksGain[i+1] + ks
	}
	growth := func(nextVar int) float64 {
		switch opts.Scheme {
		case rank.StructureFirst:
			return ssGain[nextVar]
		case rank.KeywordFirst:
			return ksGain[nextVar]
		default:
			return ssGain[nextVar] + ksGain[nextVar]
		}
	}

	baseSS := p.Base - p.DroppedPenalty
	total := func(t *tuple) float64 {
		s := rank.Score{SS: baseSS + t.regained, KS: t.ks}
		return s.Total(opts.Scheme)
	}

	// An optional variable whose binding no later variable refers to only
	// contributes its own score gains; among the matches for one tuple,
	// every extension except the best-scoring one is dominated, so only
	// the best is kept. Variables referenced by later bonus predicates or
	// checks must keep all their bindings.
	refLater := make([]bool, nv)
	hasRelax := false
	for vi := range p.Vars {
		v := &p.Vars[vi]
		for _, b := range v.Bonus {
			refLater[b.Other] = true
			hasRelax = true
		}
		for _, c := range v.Checks {
			refLater[c.Other] = true
		}
		if v.Rel == RelOptional {
			hasRelax = true
		}
		for _, c := range v.Contains {
			if !c.Required {
				hasRelax = true
			}
		}
	}

	// The candidate lists are memoized on the plan (see Plan.leaves):
	// the first run of a template-cached plan evaluates them, later runs
	// start joining immediately.
	if cancelled() {
		return nil
	}
	leaves := p.leaves()
	// Every required variable is bound once the last one Run joins is:
	// the skipped ones after it are guaranteed by the reduced lists.
	lastRequired := p.FirstOptional - 1
	for lastRequired > 0 && p.skip[lastRequired] {
		lastRequired--
	}

	// Every tuple buffer, the bootstrap one included, comes from the
	// arena's free list and goes back to it, the last one after the
	// aggregation: a run takes out as many buffers as it returns.
	tuples := append(ar.tupleBuf(), tuple{bind: unboundBindings(nv)})
	for vi := 0; vi < nv; vi++ {
		if p.skip[vi] {
			continue
		}
		v := &p.Vars[vi]
		bestOnly := v.Rel == RelOptional && !refLater[vi]
		st.JoinSteps++
		tuplesIn := len(tuples)
		excludeHere := vi == p.DistVar && len(opts.Exclude) > 0
		// Bindings for this step's output tuples are carved out of arena
		// blocks instead of one slice per tuple; binding slices are
		// immutable once created, so sharing blocks is safe.
		var block []xmltree.NodeID
		newBind := func(src []xmltree.NodeID) []xmltree.NodeID {
			if len(block) < nv {
				block = ar.Nodes(1024 * nv)
				block = block[:cap(block)]
			}
			b := block[:nv:nv]
			block = block[nv:]
			copy(b, src)
			return b
		}
		next := ar.tupleBuf()
		for ti := range tuples {
			// Join loops can run millions of iterations; polling the
			// context every 64 tuples bounds cancellation latency without
			// measurable per-tuple cost.
			if ti&63 == 0 && cancelled() {
				return nil
			}
			t := &tuples[ti]
			matched := false
			var best tuple
			// The parent filter of RelParent steps is applied inline
			// against the Parent column; no filtered candidate list is ever
			// materialized.
			cands, parentAnchor := candidatesFor(doc, v, leaves[vi], t)
			for _, m := range cands {
				if parentAnchor != xmltree.InvalidNode && parentCol[m] != parentAnchor {
					continue
				}
				if excludeHere && opts.Exclude[m] {
					continue
				}
				if !checksOK(parentCol, ends, v, t, m) {
					continue
				}
				nt := extend(parentCol, ends, v, t, vi, m, newBind)
				if bestOnly {
					if !matched || better(&nt, &best, opts.Scheme) {
						best = nt
					}
					matched = true
					continue
				}
				next = append(next, nt)
				matched = true
			}
			if bestOnly && matched {
				next = append(next, best)
			}
			if !matched && v.Rel == RelOptional {
				nt := tuple{bind: newBind(t.bind),
					regained: t.regained, ks: t.ks, sig: t.sig}
				next = append(next, nt)
			}
		}
		if cancelled() {
			return nil
		}
		st.TuplesGenerated += len(next)
		// The step's input buffer is dead: recycle it for a later step's
		// output.
		ar.recycleTuples(tuples)
		tuples = next
		trace := StepTrace{
			Candidates: len(leaves[vi]),
			TuplesIn:   tuplesIn,
			TuplesOut:  len(tuples),
		}
		if len(tuples) == 0 {
			if opts.Trace != nil {
				trace.Var = traceName(v)
				*opts.Trace = append(*opts.Trace, trace)
			}
			ar.recycleTuples(tuples)
			return nil
		}

		// Threshold pruning: once every required variable is bound, each
		// tuple is guaranteed to complete into an answer, so the K-th best
		// current score over distinct distinguished nodes is a valid lower
		// bound for the final top-K cut-off.
		pruneActive := opts.K > 0 && vi >= lastRequired && vi+1 < nv
		if pruneActive {
			threshold, ok := kthBest(ar, tuples, p.DistVar, opts.K, total)
			if ok {
				g := growth(vi + 1)
				kept := tuples[:0]
				for ti := range tuples {
					if total(&tuples[ti])+g < threshold {
						st.TuplesPruned++
						trace.Pruned++
						continue
					}
					kept = append(kept, tuples[ti])
				}
				tuples = kept
			}
		}

		// SSO keeps intermediate answers sorted on score whenever the
		// plan encodes relaxations (scores vary, so the K-th score must
		// be tracked for pruning, §5.2.2); this resort at every join is
		// the cost Hybrid's buckets avoid. A plan with no relaxations
		// encoded has nothing to sort or group for either algorithm.
		organize := opts.K > 0 && hasRelax && vi+1 < nv
		switch {
		case opts.Mode == ModeSorted && organize:
			keys, idx := ar.sortScratch(len(tuples))
			for i := range tuples {
				keys[i] = total(&tuples[i])
				idx[i] = i
			}
			// Score-descending; ties break on input position so the resort
			// is deterministic (sort.Slice here was unstable).
			slices.SortFunc(idx, func(a, b int) int {
				switch {
				case keys[a] > keys[b]:
					return -1
				case keys[a] < keys[b]:
					return 1
				default:
					return a - b
				}
			})
			sorted := ar.tupleBuf()
			if cap(sorted) < len(tuples) {
				ar.recycleTuples(sorted)
				sorted = make([]tuple, 0, len(tuples))
			}
			sorted = sorted[:len(tuples)]
			for pos, i := range idx {
				sorted[pos] = tuples[i]
			}
			ar.recycleTuples(tuples)
			tuples = sorted
			st.SortOps++
			st.SortedTuples += len(tuples)
			trace.Sorted = true
		case opts.Mode == ModeBuckets && organize:
			// Hybrid groups tuples into buckets keyed by their
			// satisfied-predicate signature. Each tuple already carries
			// its signature, and a bucket's structural score is a pure
			// function of the signature, so the buckets are implicit: no
			// physical reordering and no comparison sort ever happens —
			// the organization cost is one counting pass (§5.2.3).
			sigs := ar.signatures()
			for ti := range tuples {
				sigs[tuples[ti].sig] = struct{}{}
			}
			st.Buckets += len(sigs)
			trace.Buckets = len(sigs)
		}
		if opts.Trace != nil {
			trace.Var = traceName(v)
			trace.TuplesOut = len(tuples)
			*opts.Trace = append(*opts.Trace, trace)
		}
	}

	// Aggregate per distinguished node, best score wins (the first tuple
	// to reach it on ties), then keep the K best answers and sort only
	// those.
	slot, best := ar.slots(), ar.best[:0]
	for ti := range tuples {
		t := &tuples[ti]
		n := t.bind[p.DistVar]
		sc := rank.Score{SS: baseSS + t.regained, KS: t.ks}
		if i, ok := slot[n]; !ok {
			slot[n] = int32(len(best))
			best = append(best, Answer{Node: n, Score: sc, Sig: t.sig})
		} else if sc.Compare(best[i].Score, opts.Scheme) > 0 {
			best[i] = Answer{Node: n, Score: sc, Sig: t.sig}
		}
	}
	ar.best = best
	ar.recycleTuples(tuples)
	order := func(x, y Answer) int {
		if c := x.Score.Compare(y.Score, opts.Scheme); c != 0 {
			return -c
		}
		return int(x.Node) - int(y.Node)
	}
	if opts.K > 0 && len(best) > opts.K {
		best = keepBest(best, opts.K, func(x, y Answer) bool { return order(x, y) < 0 })
	}
	out := make([]Answer, len(best))
	copy(out, best)
	slices.SortFunc(out, order)
	return out
}

// keepBest moves the k best elements of xs (k <= len(xs)), where before
// orders better first, into xs[:k] and returns that prefix, unsorted. It
// keeps them in a bounded heap whose root is the worst element kept, so
// each later element costs one comparison unless it displaces the root.
func keepBest[T any](xs []T, k int, before func(x, y T) bool) []T {
	h := xs[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i, before)
	}
	for _, x := range xs[k:] {
		if before(x, h[0]) {
			h[0] = x
			siftDown(h, 0, before)
		}
	}
	return h
}

// siftDown restores the heap property below h[i]: no element ranks
// before its children.
func siftDown[T any](h []T, i int, before func(x, y T) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && before(h[c], h[c+1]) {
			c++
		}
		if !before(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func unboundBindings(n int) []xmltree.NodeID {
	b := make([]xmltree.NodeID, n)
	for i := range b {
		b[i] = xmltree.InvalidNode
	}
	return b
}

// evaluateLeaf computes the sorted candidate list for one plan variable:
// nodes with one of its tags that satisfy its value predicates and
// required contains predicates.
//
// With a required contains predicate the list starts from the smallest
// such predicate's Within list of each tag, which chooses between
// walking up from the witnesses and scanning the tag list (§5.1's open
// choice between evaluating contains predicates first and matching
// structure first); the other required predicates and the value
// predicates then narrow it. Without one it starts from the tag lists.
func evaluateLeaf(doc *xmltree.Document, v *VarSpec) []xmltree.NodeID {
	first := -1
	for i := range v.Contains {
		if c := &v.Contains[i]; c.Required && (first < 0 || c.Res.Len() < v.Contains[first].Res.Len()) {
			first = i
		}
	}
	list := doc.NodesWithTag
	if first >= 0 {
		list = v.Contains[first].Res.Within
	}
	var base []xmltree.NodeID
	if len(v.Tags) <= 1 {
		tag := v.Tag
		if len(v.Tags) == 1 {
			tag = v.Tags[0]
		}
		base = list(tag)
	} else {
		lists := make([][]xmltree.NodeID, 0, len(v.Tags))
		for _, t := range v.Tags {
			if l := list(t); len(l) > 0 {
				lists = append(lists, l)
			}
		}
		base = mergeSorted(lists)
	}
	// Each further required predicate is one forward semijoin of the
	// sorted list against its witness column: the first reads base into a
	// fresh buffer, the rest and the value filter narrow that buffer in
	// place. base itself may be shared and is never written.
	out := base
	var buf []xmltree.NodeID
	for i, c := range v.Contains {
		if c.Required && i != first {
			if buf == nil {
				buf = make([]xmltree.NodeID, 0, len(base))
			}
			out = c.Res.SemiJoinInto(buf, out)
		}
	}
	if buf == nil && len(v.Values) > 0 {
		buf = make([]xmltree.NodeID, 0, len(base))
	}
	return filterValues(doc, buf, out, v.Values)
}

// filterValues appends to dst[:0] the nodes of xs that satisfy every
// value predicate; dst may share xs's storage. With no predicates it
// returns xs itself.
func filterValues(doc *xmltree.Document, dst, xs []xmltree.NodeID, values []tpq.ValuePred) []xmltree.NodeID {
	if len(values) == 0 {
		return xs
	}
	dst = dst[:0]
candidates:
	for _, m := range xs {
		for _, vp := range values {
			if !EvalValuePred(doc, m, vp) {
				continue candidates
			}
		}
		dst = append(dst, m)
	}
	return dst
}

// mergeSorted merges sorted NodeID lists into one sorted list.
func mergeSorted(lists [][]xmltree.NodeID) []xmltree.NodeID {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]xmltree.NodeID, 0, total)
	idx := make([]int, len(lists))
	for {
		best := -1
		for i, l := range lists {
			if idx[i] >= len(l) {
				continue
			}
			if best == -1 || l[idx[i]] < lists[best][idx[best]] {
				best = i
			}
		}
		if best == -1 {
			return out
		}
		out = append(out, lists[best][idx[best]])
		idx[best]++
	}
}

// candidatesFor returns the slice of the variable's leaf that can bind it
// given the tuple's anchor binding, plus a parent filter: when
// parentAnchor is not InvalidNode the caller must additionally require
// Parent(m) == parentAnchor. Returning the filter instead of a filtered
// copy keeps this allocation-free — the join loop applies it inline
// against the Parent column.
func candidatesFor(doc *xmltree.Document, v *VarSpec, leaf []xmltree.NodeID, t *tuple) (cands []xmltree.NodeID, parentAnchor xmltree.NodeID) {
	switch v.Rel {
	case RelRoot:
		return leaf, xmltree.InvalidNode
	case RelParent:
		anchor := t.bind[v.Anchor]
		return DescendantsInRange(doc, leaf, anchor), anchor
	default: // RelAncestor, RelOptional
		return DescendantsInRange(doc, leaf, t.bind[v.Anchor]), xmltree.InvalidNode
	}
}

// better orders two candidate extensions of the same tuple: higher
// (regained, ks) under the scheme's primary component first.
func better(a, b *tuple, scheme rank.Scheme) bool {
	sa := rank.Score{SS: a.regained, KS: a.ks}
	sb := rank.Score{SS: b.regained, KS: b.ks}
	return sa.Compare(sb, scheme) > 0
}

// checksOK evaluates the variable's structural checks against the columns
// directly (a < n && n <= ends[a] is the interval-containment test).
func checksOK(parents, ends []xmltree.NodeID, v *VarSpec, t *tuple, m xmltree.NodeID) bool {
	for _, c := range v.Checks {
		o := t.bind[c.Other]
		if o == xmltree.InvalidNode {
			return false
		}
		if c.Parent {
			if parents[m] != o {
				return false
			}
		} else if !(o < m && m <= ends[o]) {
			return false
		}
	}
	return true
}

func extend(parents, ends []xmltree.NodeID, v *VarSpec, t *tuple, vi int, m xmltree.NodeID, newBind func([]xmltree.NodeID) []xmltree.NodeID) tuple {
	bind := newBind(t.bind)
	bind[vi] = m
	nt := tuple{bind: bind, regained: t.regained, ks: t.ks, sig: t.sig}
	for _, b := range v.Bonus {
		o := t.bind[b.Other]
		if o == xmltree.InvalidNode {
			continue
		}
		anc, desc := m, o
		if b.OtherIsAncestor {
			anc, desc = o, m
		}
		var ok bool
		if b.Parent {
			ok = parents[desc] == anc
		} else {
			ok = anc < desc && desc <= ends[anc]
		}
		if ok {
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

// kthBest returns the K-th best current total over distinct distinguished
// bindings, or ok=false when fewer than K distinct bindings exist. It
// aggregates through the arena's slot table and selects with a size-K
// heap.
func kthBest(ar *Arena, tuples []tuple, distVar, k int, total func(*tuple) float64) (float64, bool) {
	slot, totals := ar.slots(), ar.totals[:0]
	for ti := range tuples {
		t := &tuples[ti]
		n := t.bind[distVar]
		if n == xmltree.InvalidNode {
			continue
		}
		v := total(t)
		if i, ok := slot[n]; !ok {
			slot[n] = int32(len(totals))
			totals = append(totals, v)
		} else if v > totals[i] {
			totals[i] = v
		}
	}
	ar.totals = totals
	if len(totals) < k {
		return 0, false
	}
	return keepBest(totals, k, func(x, y float64) bool { return x > y })[0], true
}

// traceName is a join step's StepTrace.Var. It is rendered only when a
// trace is kept: Run must not build a string per step otherwise.
func traceName(v *VarSpec) string { return "$" + itoa(v.VarID) + " " + v.Tag }

// itoa is strconv.Itoa without the import churn in this hot file.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
