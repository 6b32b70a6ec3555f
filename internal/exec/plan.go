package exec

import (
	"context"
	"slices"
	"strconv"
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
	// semijoin-reduced (see Plan.leaves); skip marks the existential
	// variables Run never joins and steps says what Run does at each
	// variable (see planSteps). A plan shared across searches by the
	// plan-template cache pays leaf evaluation and reduction once; later
	// runs of the same plan reuse the lists. The memo is sound because a
	// plan is immutable once built, the document is immutable, and Run never
	// mutates the lists (joins only read them). Plans must not be copied
	// by value once used.
	leafOnce  sync.Once
	leafLists [][]xmltree.NodeID
	skip      []bool
	steps     []step
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
		p.steps = planSteps(p, p.skip)
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

// step is what Run does at one variable beyond joining it, derived from
// which later variables read which bindings (planSteps).
type step struct {
	// inPlace: no later variable reads this variable's binding, and it is
	// not the distinguished one. All of a tuple's extensions then agree on
	// every binding a later step reads and gain the same from it, so only
	// the best can end up best; Run scores the candidates in place and
	// keeps the tuple with the winner's gains instead of building a tuple
	// per candidate.
	inPlace bool
	// capped: every gain of the variable is a non-negative penalty and it
	// adds no keyword score, so a candidate that earns all of them back
	// cannot be beaten and ends the scan.
	capped bool
	// group, when non-nil, lists the variables whose bindings are still
	// read after this one: the distinguished variable and every variable
	// a later anchor, check or bonus refers to. It is set where this
	// variable is the last reader of an earlier one (never at the last
	// variable, where the answers are aggregated). Tuples that agree on
	// the group's bindings are then interchangeable, and Run keeps only
	// the best of each group.
	group []int
}

// planSteps derives each variable's step. A variable reads its anchor and
// the other side of each check and bonus predicate; the answer reads the
// distinguished variable. Existential variables count as readers too, so
// where tuples are grouped depends on the plan alone, not on which steps
// Run skips. Only a step after which a joined variable (not one in skip)
// is read no more groups: Run binds no skipped variable, so tuples that
// differ in nothing else are already distinct.
func planSteps(p *Plan, skip []bool) []step {
	nv := len(p.Vars)
	scratch := make([]int, 2*nv)
	// last is the last variable reading each one, or -1; grouped[vi] is 1
	// when vi is the last reader of a joined variable.
	last, grouped := scratch[:nv], scratch[nv:]
	for i := range last {
		last[i] = -1
	}
	for vi := range p.Vars {
		v := &p.Vars[vi]
		if v.Anchor >= 0 {
			last[v.Anchor] = vi
		}
		for _, c := range v.Checks {
			last[c.Other] = vi
		}
		for _, b := range v.Bonus {
			last[b.Other] = vi
		}
	}
	last[p.DistVar] = nv
	// A step groups after a joined variable it read last; its group is
	// every variable read after it. One slice holds all the groups.
	size := 0
	for u, l := range last {
		if l > u && l < nv-1 && !skip[u] {
			grouped[l] = 1
		}
	}
	for vi, g := range grouped {
		for u := 0; g == 1 && u <= vi; u++ {
			if last[u] > vi {
				size++
			}
		}
	}
	keys := make([]int, 0, size)
	steps := make([]step, nv)
	for vi := range p.Vars {
		s := &steps[vi]
		s.inPlace = last[vi] < 0
		s.capped = capped(&p.Vars[vi])
		if grouped[vi] == 0 {
			continue
		}
		from := len(keys)
		for u := 0; u <= vi; u++ {
			if last[u] > vi {
				keys = append(keys, u)
			}
		}
		s.group = keys[from:len(keys):len(keys)]
	}
	return steps
}

// capped reports whether v's gains are all non-negative structural
// penalties: then earning every one of them back is the most a candidate
// can reach.
func capped(v *VarSpec) bool {
	for _, b := range v.Bonus {
		if !(b.Penalty >= 0) {
			return false
		}
	}
	for _, c := range v.Contains {
		if c.Required || !(c.Penalty >= 0) {
			return false
		}
	}
	return true
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
//
// An answer's score is the best over its bindings, and Run takes that
// maximum step by step instead of over every complete binding: a variable
// no later step reads is scored in place (step.inPlace), and where a
// variable is the last reader of an earlier one, the tuples that agree on
// every binding still read keep only the best (step.group). In exact
// arithmetic this is the maximum over every complete binding. In floats,
// addition is monotone in each score component alone, so an answer's
// first component under a lexicographic scheme is that maximum bit for
// bit; where rounding decides (a few-ulp lead under Combined, or a lead
// in the first component that adding Base absorbs), the ranking may
// differ from full enumeration's by that much. Ties go to the tuple first
// in document order, the lexicographically least binding vector.
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
	hasRelax := false
	for i := nv - 1; i >= 0; i-- {
		v := &p.Vars[i]
		ss, ks := 0.0, 0.0
		for _, b := range v.Bonus {
			ss += b.Penalty
			hasRelax = true
		}
		for _, c := range v.Contains {
			if c.Required {
				ks += c.Weight
			} else {
				ss += c.Penalty
				hasRelax = true
			}
		}
		if v.Rel == RelOptional {
			hasRelax = true
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
	// Steps compare what tuples gained so far; the answers compare final
	// scores.
	gained := ranker{scheme: opts.Scheme}
	final := ranker{scheme: opts.Scheme, base: baseSS}

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

	x := stepper{p: p, leaves: leaves, ends: ends, parents: parentCol, gained: gained}
	// Every tuple buffer, the bootstrap one included, comes from the
	// arena's free list and goes back to it, the last one after the
	// aggregation: a run takes out as many buffers as it returns.
	tuples := append(ar.tupleBuf(), tuple{bind: unboundBindings(nv)})
	aggregated := false
	var scratch []xmltree.NodeID // a binding being extended, in fused steps
	for vi := 0; vi < nv; vi++ {
		sp := &p.steps[vi]
		if p.skip[vi] {
			if sp.group != nil {
				tuples = collapse(ar, tuples, sp.group, gained)
			}
			continue
		}
		v := &p.Vars[vi]
		st.JoinSteps++
		tuplesIn := len(tuples)
		first, end := vi, vi
		var fused []fusedStep
		if sp.inPlace {
			// Each tuple keeps its place and takes the gains of its best
			// candidate; a required variable with no candidate drops it,
			// an optional one leaves it as it is.
			var sc scope
			kept := tuples[:0]
			for ti := range tuples {
				if ti&63 == 0 && cancelled() {
					return nil
				}
				t := tuples[ti]
				if x.score(vi, &t, &sc) {
					kept = append(kept, t)
				}
			}
			tuples = kept
			if sp.group != nil {
				tuples = collapse(ar, tuples, sp.group, gained)
			}
		} else {
			// A join is fused with the variables scored in place right
			// after it, up to the first one that groups: each candidate's
			// extension is scored through them and goes straight into its
			// group, so only the groups' best tuples are ever built.
			for end+1 < nv && p.steps[end].group == nil && !p.skip[end+1] && p.steps[end+1].inPlace {
				end++
			}
			fused = ar.fusedSteps(end - vi)
			var sink *groups
			switch {
			case p.steps[end].group != nil:
				sink = ar.groups(p.steps[end].group, gained, len(tuples), ar.tupleBuf())
			case end == nv-1:
				sink = ar.groups(ar.distKey(p.DistVar), final, len(tuples), ar.tupleBuf())
				aggregated = true
			}
			excludeHere := vi == p.DistVar && len(opts.Exclude) > 0
			// Bindings for the step's output tuples are carved out of
			// arena blocks instead of one slice per tuple; each binding
			// belongs to one tuple, so sharing blocks is safe. The first
			// block holds as many bindings as the step has input tuples,
			// and each further one twice the last, up to 1024.
			var block []xmltree.NodeID
			blockLen := min(max(tuplesIn, 16), 1024)
			newBind := func(src []xmltree.NodeID) []xmltree.NodeID {
				if len(block) < nv {
					block = ar.Nodes(blockLen * nv)
					block = block[:cap(block)]
					blockLen = min(2*blockLen, 1024)
				}
				b := block[:nv:nv]
				block = block[nv:]
				copy(b, src)
				return b
			}
			if scratch == nil {
				scratch = ar.Nodes(nv)[:nv]
			}
			// emit scores an extension through the fused steps and hands
			// it on: to its group when the steps end in one, else to the
			// step's output.
			next := ar.tupleBuf()
			emit := func(nt *tuple) {
				for i := range fused {
					f := &fused[i]
					f.in++
					if !x.score(first+1+i, nt, &f.sc) {
						return
					}
				}
				if sink != nil {
					sink.offer(nt, newBind)
					return
				}
				nt.bind = newBind(nt.bind)
				next = append(next, *nt)
			}
			var sc scope
			for ti := range tuples {
				// Join loops can run millions of iterations; polling the
				// context every 64 tuples bounds cancellation latency
				// without measurable per-tuple cost.
				if ti&63 == 0 && cancelled() {
					return nil
				}
				t := &tuples[ti]
				copy(scratch, t.bind)
				matched := false
				// The parent filter of RelParent steps is applied inline
				// against the Parent column; no filtered candidate list is
				// ever materialized.
				cands, parentAnchor := sc.candidates(doc, v, leaves[vi], t)
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
					nt := gain(parentCol, ends, v, t, m)
					scratch[vi] = m
					nt.bind = scratch
					emit(&nt)
					matched = true
				}
				if !matched && v.Rel == RelOptional {
					scratch[vi] = xmltree.InvalidNode
					nt := *t
					nt.bind = scratch
					emit(&nt)
				}
			}
			if sink != nil {
				ar.recycleTuples(next)
				next = sink.out
			}
			st.TuplesGenerated += len(next)
			// The step's input buffer is dead: recycle it for a later
			// step's output.
			ar.recycleTuples(tuples)
			tuples = next
		}
		if cancelled() {
			return nil
		}
		if len(fused) > 0 {
			// The fused steps' rows: the join's own, then each step
			// scored in place but the last, which the row below reports.
			if opts.Trace != nil {
				*opts.Trace = append(*opts.Trace, StepTrace{Var: traceName(v),
					Candidates: len(leaves[vi]), TuplesIn: tuplesIn, TuplesOut: fused[0].in})
				for i := range fused[:len(fused)-1] {
					w := &p.Vars[first+1+i]
					*opts.Trace = append(*opts.Trace, StepTrace{Var: traceName(w),
						Candidates: len(leaves[first+1+i]), TuplesIn: fused[i].in, TuplesOut: fused[i+1].in})
				}
			}
			tuplesIn = fused[len(fused)-1].in
			vi, v = end, &p.Vars[end]
		}
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
		// encoded has nothing to sort or group for either algorithm. Ties
		// are broken by binding, never by position, so the order does not
		// change the answers.
		organize := opts.K > 0 && hasRelax && vi+1 < nv
		switch {
		case opts.Mode == ModeSorted && organize:
			keys, idx := ar.sortScratch(len(tuples))
			inOrder := true
			for i := range tuples {
				keys[i] = total(&tuples[i])
				idx[i] = i
				inOrder = inOrder && (i == 0 || keys[i] <= keys[i-1])
			}
			if inOrder {
				// Nothing to move: the step kept every tuple's rank (as a
				// step that earns nothing back does).
				break
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

	// Aggregate per distinguished node, best score wins (unless the last
	// join did), then keep the K best answers and sort only those.
	if !aggregated {
		tuples = collapse(ar, tuples, ar.distKey(p.DistVar), final)
	}
	best := ar.best[:0]
	for ti := range tuples {
		t := &tuples[ti]
		best = append(best, Answer{Node: t.bind[p.DistVar],
			Score: rank.Score{SS: baseSS + t.regained, KS: t.ks}, Sig: t.sig})
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

// ranker orders tuples by score under a scheme, base added to what they
// regained.
type ranker struct {
	scheme rank.Scheme
	base   float64
}

func (r ranker) compare(a, b *tuple) int {
	return rank.Score{SS: r.base + a.regained, KS: a.ks}.Compare(rank.Score{SS: r.base + b.regained, KS: b.ks}, r.scheme)
}

// collapse keeps, of the tuples that agree on the bindings of the
// variables in key, the one r ranks best. It works in place.
func collapse(ar *Arena, tuples []tuple, key []int, r ranker) []tuple {
	g := ar.groups(key, r, len(tuples), tuples[:0]) // out stays at or before every tuple offered
	for ti := range tuples {
		g.offer(&tuples[ti], nil)
	}
	return g.out
}

// groups gathers tuples that agree on the bindings of key, keeping the
// one r ranks best of each group, the least binding vector on ties, in
// order of the groups' first tuples.
type groups struct {
	ar  *Arena
	key []int
	r   ranker
	tab []int32 // open addressing: one more than a group's index in out; 0 is free
	out []tuple
}

// offer adds t to its group. carve, when not nil, copies a binding t
// does not own: a new group's tuple takes a carved copy, and a better
// tuple is copied into its group's binding.
func (g *groups) offer(t *tuple, carve func([]xmltree.NodeID) []xmltree.NodeID) {
	if 2*(len(g.out)+1) > len(g.tab) {
		g.grow()
	}
	mask := uint64(len(g.tab) - 1)
	for i := hashKey(t.bind, g.key) & mask; ; i = (i + 1) & mask {
		s := g.tab[i]
		if s == 0 {
			nt := *t
			if carve != nil {
				nt.bind = carve(t.bind)
			}
			g.out = append(g.out, nt)
			g.tab[i] = int32(len(g.out))
			return
		}
		o := &g.out[s-1]
		if !sameKey(o.bind, t.bind, g.key) {
			continue
		}
		if c := g.r.compare(t, o); c > 0 || c == 0 && slices.Compare(t.bind, o.bind) < 0 {
			if carve != nil {
				copy(o.bind, t.bind)
				o.regained, o.ks, o.sig = t.regained, t.ks, t.sig
			} else {
				*o = *t
			}
		}
		return
	}
}

// grow doubles the table and places the groups again.
func (g *groups) grow() {
	g.tab = g.ar.table(len(g.tab))
	mask := uint64(len(g.tab) - 1)
	for j := range g.out {
		i := hashKey(g.out[j].bind, g.key) & mask
		for g.tab[i] != 0 {
			i = (i + 1) & mask
		}
		g.tab[i] = int32(j + 1)
	}
}

// stepper scores variables in place (step.inPlace).
type stepper struct {
	p       *Plan
	leaves  [][]xmltree.NodeID
	ends    []xmltree.NodeID
	parents []xmltree.NodeID
	gained  ranker
}

// score gives t the gains of variable vi's best candidate under t's
// bindings, the first on ties. It reports false when a required variable
// has no candidate; an optional one without any leaves t as it is. When
// the variable's gains are capped, a candidate that earns them all back
// ends the scan.
func (x *stepper) score(vi int, t *tuple, sc *scope) bool {
	v := &x.p.Vars[vi]
	limit := t.regained
	capped := x.p.steps[vi].capped
	if capped {
		for _, b := range v.Bonus {
			limit += b.Penalty
		}
		for _, c := range v.Contains {
			limit += c.Penalty
		}
	}
	found := false
	var best tuple
	cands, parentAnchor := sc.candidates(x.p.Doc, v, x.leaves[vi], t)
	for _, m := range cands {
		if parentAnchor != xmltree.InvalidNode && x.parents[m] != parentAnchor {
			continue
		}
		if !checksOK(x.parents, x.ends, v, t, m) {
			continue
		}
		g := gain(x.parents, x.ends, v, t, m)
		if !found || x.gained.compare(&g, &best) > 0 {
			best, found = g, true
			if capped && best.regained == limit {
				break
			}
		}
	}
	if found {
		t.regained, t.ks, t.sig = best.regained, best.ks, best.sig
	}
	return found || v.Rel == RelOptional
}

// fusedStep is the scope of a variable scored in place within a fused
// join, and the number of tuples it scored.
type fusedStep struct {
	sc scope
	in int
}

// hashKey hashes the bindings of the variables in key.
func hashKey(bind []xmltree.NodeID, key []int) uint64 {
	h := uint64(len(key))
	for _, u := range key {
		h = (h ^ uint64(uint32(bind[u]))) * 0x9e3779b97f4a7c15
	}
	return h ^ h>>32
}

// sameKey reports whether a and b bind the variables in key alike.
func sameKey(a, b []xmltree.NodeID, key []int) bool {
	for _, u := range key {
		if a[u] != b[u] {
			return false
		}
	}
	return true
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

// scope finds one step's candidates under each tuple's anchor binding.
type scope struct {
	lo     int            // where the previous anchor's range began
	anchor xmltree.NodeID // the previous anchor (zero before the first)
}

// candidates returns the slice of the variable's leaf that can bind it
// given the tuple's anchor binding, plus a parent filter: when
// parentAnchor is not InvalidNode the caller must additionally require
// Parent(m) == parentAnchor. Returning the filter instead of a filtered
// copy keeps this allocation-free — the join loop applies it inline
// against the Parent column. Tuples mostly arrive in document order of
// their anchors, so the search starts where the previous anchor's range
// began unless the anchor moved back.
func (s *scope) candidates(doc *xmltree.Document, v *VarSpec, leaf []xmltree.NodeID, t *tuple) (cands []xmltree.NodeID, parentAnchor xmltree.NodeID) {
	if v.Rel == RelRoot {
		return leaf, xmltree.InvalidNode
	}
	a := t.bind[v.Anchor]
	from := 0
	if a >= s.anchor {
		from = s.lo
	}
	lo, hi := descendantsFrom(doc, leaf, a, from)
	s.lo, s.anchor = lo, a
	if v.Rel == RelParent {
		parentAnchor = a
	} else {
		parentAnchor = xmltree.InvalidNode
	}
	return leaf[lo:hi], parentAnchor
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

// gain returns t's score and signature after binding v to m: the
// penalties of the bonus and optional contains predicates m satisfies are
// earned back and the required contains predicates add m's keyword score,
// each in spec order. The result has no binding.
func gain(parents, ends []xmltree.NodeID, v *VarSpec, t *tuple, m xmltree.NodeID) tuple {
	nt := tuple{regained: t.regained, ks: t.ks, sig: t.sig}
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
// aggregates through the arena's hash table and selects with a size-K
// heap.
func kthBest(ar *Arena, tuples []tuple, distVar, k int, total func(*tuple) float64) (float64, bool) {
	table := ar.table(len(tuples))
	mask := uint64(len(table) - 1)
	totals, nodes := ar.totals[:0], ar.nodes[:0]
	key := ar.distKey(distVar)
	for ti := range tuples {
		t := &tuples[ti]
		n := t.bind[distVar]
		if n == xmltree.InvalidNode {
			continue
		}
		v := total(t)
		for i := hashKey(t.bind, key) & mask; ; i = (i + 1) & mask {
			s := table[i]
			if s == 0 {
				totals, nodes = append(totals, v), append(nodes, n)
				table[i] = int32(len(totals))
				break
			}
			if nodes[s-1] == n {
				totals[s-1] = max(totals[s-1], v)
				break
			}
		}
	}
	ar.totals, ar.nodes = totals, nodes
	if len(totals) < k {
		return 0, false
	}
	return keepBest(totals, k, func(x, y float64) bool { return x > y })[0], true
}

// traceName is a join step's StepTrace.Var. It is rendered only when a
// trace is kept: Run must not build a string per step otherwise.
func traceName(v *VarSpec) string { return "$" + strconv.Itoa(v.VarID) + " " + v.Tag }
