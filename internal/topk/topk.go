// Package topk implements the three top-K query evaluation algorithms of
// FleXPath (§5 of the paper):
//
//   - DPO (Dynamic Penalty Order) walks the relaxation chain one query at
//     a time over off-the-shelf engines, stopping as soon as K answers are
//     accumulated; results append in score blocks, so no sorting is
//     needed, but each step re-evaluates a (larger) query.
//   - SSO (Static Selectivity Order) uses selectivity estimates to decide
//     up front which relaxations to encode into a single scored join plan,
//     pruning intermediate answers with score thresholds; it keeps
//     intermediate answers sorted on score, paying a resort at every join.
//   - Hybrid runs the same encoded plan but organizes intermediate answers
//     into buckets keyed by the set of satisfied predicates, eliminating
//     SSO's resorting while keeping its pruning.
package topk

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"flexpath/internal/core"
	"flexpath/internal/exec"
	"flexpath/internal/ir"
	"flexpath/internal/obs"
	"flexpath/internal/rank"
	"flexpath/internal/stats"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

// Result is one top-K answer.
type Result struct {
	Node  xmltree.NodeID
	Score rank.Score
	// Relaxations is the relaxation level at which the answer was
	// admitted: 0 for exact matches of the original query.
	Relaxations int
	// Missed describes the relaxation steps whose predicates this answer
	// does not satisfy (why it is not an exact match). Populated by the
	// plan-based algorithms, which track per-answer predicate
	// satisfaction; DPO knows only the admitting level and leaves it nil.
	Missed []string

	// sig carries the answer's predicate-satisfaction bits between the
	// ranking pass and the deferred Missed materialization in toResults.
	sig uint64
}

// Metrics reports the work an algorithm performed.
type Metrics struct {
	// QueriesEvaluated counts exact query evaluations (DPO).
	QueriesEvaluated int
	// PlansRun counts scored plan executions (SSO/Hybrid, including
	// restarts).
	PlansRun int
	// RelaxationsEncoded is the number of chain steps the final plan
	// encoded (SSO/Hybrid) or the deepest level DPO evaluated.
	RelaxationsEncoded int
	// Restarts counts SSO/Hybrid re-executions after an estimate
	// undershot K.
	Restarts int
	// EstimatorCalls counts selectivity estimations.
	EstimatorCalls int
	// PairsMaterialized counts shortcut edges materialized by the
	// data-relaxation baseline.
	PairsMaterialized int
	// Pipeline accumulates join-pipeline counters.
	Pipeline exec.PipelineStats
}

// Options configures a top-K run.
type Options struct {
	K      int
	Scheme rank.Scheme
	// Ctx, when non-nil, cancels the run: DPO checks it before each
	// relaxation level, SSO/Hybrid before each plan (re-)execution, and
	// the join pipeline polls it inside its loops. A cancelled run
	// returns a truncated (possibly nil) result; callers must consult
	// Ctx.Err to tell cancellation from a genuinely small answer set.
	Ctx context.Context
	// Parallel fans plan execution out over this many goroutines
	// (<= 1 runs sequentially); results are unaffected.
	Parallel int
	// Metrics, when non-nil, accumulates work counters.
	Metrics *Metrics
	// Span, when non-nil, receives per-stage latency: the algorithms
	// record join/plan execution time under obs.StageJoin. A nil span
	// costs one pointer check per plan run.
	Span *obs.Span
	// Template, when non-nil, memoizes the per-level join plans and the
	// estimator-chosen prefix levels across runs of the same (query,
	// weights, hierarchy) triple (see core.Template). Answers are
	// identical with or without it; only repeated work disappears.
	Template *core.Template
}

// planAt returns the scored plan for prefix j, through the template's
// memo when one is attached.
func (o *Options) planAt(chain *core.Chain, j int) (*exec.Plan, error) {
	if o.Template != nil {
		return o.Template.PlanAt(j)
	}
	return chain.PlanAt(j)
}

// exactPlanAt returns the exact-evaluation plan for level j, through the
// template's memo when one is attached.
func (o *Options) exactPlanAt(chain *core.Chain, j int) (*exec.Plan, error) {
	if o.Template != nil {
		return o.Template.ExactPlanAt(j)
	}
	return chain.ExactPlanAt(j)
}

// timeJoin runs fn, charging its duration to the span's join stage.
func (o *Options) timeJoin(fn func()) {
	if o.Span == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	o.Span.Rec(obs.StageJoin, time.Since(start))
}

func (o *Options) metrics() *Metrics {
	if o.Metrics == nil {
		o.Metrics = &Metrics{}
	}
	return o.Metrics
}

// cancelled reports whether the run's context has been cancelled.
func (o *Options) cancelled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// DPO runs the Dynamic Penalty Order algorithm (§5.1.1): evaluate the
// original query; while fewer than K answers have been found, drop the
// next lowest-penalty predicate and evaluate the relaxed query, keeping
// only answers not seen before. Every answer admitted at level j gets the
// level's uniform structural score, so blocks append already ordered
// under the structure-first scheme.
//
// As in the paper, each relaxed query is evaluated with the same
// left-deep structural join plans SSO and Hybrid use (Figure 8) — DPO's
// cost is one full plan pass per relaxation level. DPOSemijoin is a
// faster existential-semijoin variant provided as an ablation.
func DPO(ev *exec.Evaluator, chain *core.Chain, opts Options) []Result {
	return dpo(ev, chain, opts, false)
}

// DPOSemijoin is DPO with each relaxed query evaluated by the two-pass
// existential semijoin algorithm instead of full join plans. It computes
// the same answers; it exists to quantify (ablation) how much of DPO's
// cost in the paper's experiments comes from materializing full match
// tuples at every relaxation level.
func DPOSemijoin(ev *exec.Evaluator, chain *core.Chain, opts Options) []Result {
	return dpo(ev, chain, opts, true)
}

func dpo(ev *exec.Evaluator, chain *core.Chain, opts Options, semijoin bool) []Result {
	m := opts.metrics()
	k := opts.K
	var results []Result
	seen := make(map[xmltree.NodeID]bool)

	// One scratch arena serves every relaxation level: each level's
	// intermediate lists, tuple buffers and binding blocks are carved from
	// it and recycled wholesale by the Reset below once the level's
	// answers have been copied into results.
	arena := exec.GetArena()
	defer exec.PutArena(arena)

	stopLevel := chain.Len()
	reachedAt := -1
	m0 := chain.Original.NumContains()
	for level := 0; level <= stopLevel; level++ {
		// DPO's per-relaxation loop is the algorithm's dominant cost;
		// observe cancellation between levels so a timed-out request
		// stops re-evaluating ever larger relaxed queries.
		if opts.cancelled() {
			return nil
		}
		arena.Reset()
		q := chain.QueryAt(level)
		var block []Result
		ss := chain.SSAt(level)
		var plan *exec.Plan
		if !semijoin {
			var err error
			plan, err = opts.exactPlanAt(chain, level)
			if err != nil {
				// A level whose plan cannot be built was never evaluated:
				// bail before touching the work counters, so DPO and
				// DPOSemijoin report identical QueriesEvaluated for the
				// levels both actually ran.
				return nil
			}
		}
		m.QueriesEvaluated++
		m.RelaxationsEncoded = level
		if semijoin {
			var ok [][]xmltree.NodeID
			opts.timeJoin(func() { ok = ev.EvaluateFullArena(q, arena) })
			if ok != nil {
				scorer := newKSScorer(chain, level, q, ok)
				for _, n := range ok[q.Dist] {
					if seen[n] {
						continue
					}
					seen[n] = true
					block = append(block, Result{
						Node:        n,
						Score:       rank.Score{SS: ss, KS: scorer.ks(n)},
						Relaxations: level,
					})
				}
			}
		} else {
			// Answers found at previous levels are excluded inside the
			// plan (not just post-hoc), so each level's pass only
			// explores data that can still produce new answers —
			// the paper's avoid-recomputation device (§5.2.2).
			var levelAnswers []exec.Answer
			opts.timeJoin(func() {
				levelAnswers = exec.Run(plan, exec.Options{
					Mode: exec.ModeExhaustive, Scheme: opts.Scheme,
					Parallel: opts.Parallel, Stats: &m.Pipeline,
					Exclude: seen, Ctx: opts.Ctx, Arena: arena,
				})
			})
			for _, a := range levelAnswers {
				if seen[a.Node] {
					continue
				}
				seen[a.Node] = true
				block = append(block, Result{
					Node:        a.Node,
					Score:       rank.Score{SS: ss, KS: a.Score.KS},
					Relaxations: level,
				})
			}
		}
		// Within a block all answers share ss; order by the secondary
		// component so the block appends in final order.
		sortResults(block, opts.Scheme)
		results = append(results, block...)

		if len(results) >= k && reachedAt < 0 {
			reachedAt = level
			switch opts.Scheme {
			case rank.StructureFirst:
				// Later levels have strictly lower structural scores
				// except for zero-penalty steps; keep going through ties.
				j := level
				for j < chain.Len() && chain.SSAt(j+1) >= chain.SSAt(level) {
					j++
				}
				stopLevel = j
			case rank.Combined:
				// §5.1 pruning rule: with m contains predicates, answers
				// of relaxations whose ss drops below ss(i) - m cannot
				// reach the top-K.
				j := level
				for j < chain.Len() && chain.SSAt(j+1) > chain.SSAt(level)-float64(m0) {
					j++
				}
				stopLevel = j
			case rank.KeywordFirst:
				// An answer with the worst structural score might still
				// make the top-K: all relaxations must be evaluated.
				stopLevel = chain.Len()
			}
		}
	}
	sortResults(results, opts.Scheme)
	if len(results) > k {
		results = results[:k]
	}
	return results
}

// SSO runs the Static Selectivity Order algorithm (§5.1.2): estimate how
// many relaxations are needed to produce K answers, encode exactly those
// into one plan, and execute it with threshold pruning and score-sorted
// intermediate lists. If the estimate undershoots, it extends the prefix
// and restarts.
func SSO(chain *core.Chain, est *stats.Estimator, opts Options) []Result {
	return planBased(chain, est, opts, exec.ModeSorted)
}

// Hybrid runs the Hybrid algorithm (§5.2.3): identical relaxation choice
// and pruning as SSO, but intermediate answers live in buckets keyed by
// their satisfied-predicate signature, so they are never resorted.
func Hybrid(chain *core.Chain, est *stats.Estimator, opts Options) []Result {
	return planBased(chain, est, opts, exec.ModeBuckets)
}

func planBased(chain *core.Chain, est *stats.Estimator, opts Options, mode exec.Mode) []Result {
	m := opts.metrics()
	k := opts.K
	j := choosePrefix(chain, est, opts, m)
	// One arena serves the initial run and any restarts; each restart
	// re-executes a larger plan from scratch, so everything the previous
	// round carved is recycled by the Reset below.
	arena := exec.GetArena()
	defer exec.PutArena(arena)
	for {
		if opts.cancelled() {
			return nil
		}
		arena.Reset()
		plan, err := opts.planAt(chain, j)
		if err != nil {
			return nil
		}
		m.PlansRun++
		m.RelaxationsEncoded = j
		var answers []exec.Answer
		opts.timeJoin(func() {
			answers = exec.Run(plan, exec.Options{
				K:        k,
				Scheme:   opts.Scheme,
				Mode:     mode,
				Parallel: opts.Parallel,
				Stats:    &m.Pipeline,
				Ctx:      opts.Ctx,
				Arena:    arena,
			})
		})
		if opts.cancelled() {
			return nil
		}
		if len(answers) >= k || j >= chain.Len() {
			// Remember the level that actually produced K answers: a
			// later search with the same K skips the restarts (the final
			// round's plan run fully determines the output, so answers
			// are unchanged).
			if opts.Template != nil {
				opts.Template.SetLevel(core.LevelKey{K: k, Scheme: opts.Scheme}, j)
			}
			return toResults(chain, answers, opts, k)
		}
		// Selectivity estimate was too optimistic: drop more predicates
		// and restart (§5.1.2, lines 11-12).
		m.Restarts++
		j++
	}
}

// Explain returns a description of the scored join plan SSO and Hybrid
// would execute for the given options: the estimator-chosen relaxation
// prefix and the per-variable join pipeline.
func Explain(chain *core.Chain, est *stats.Estimator, opts Options) (string, error) {
	m := opts.metrics()
	j := choosePrefix(chain, est, opts, m)
	plan, err := opts.planAt(chain, j)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "relaxations encoded: %d of %d (scheme %v, K=%d)\n",
		j, chain.Len(), opts.Scheme, opts.K)
	for i := 1; i <= j; i++ {
		fmt.Fprintf(&sb, "  %2d. %s (penalty %.4f)\n", i, chain.Steps[i-1].Desc, chain.Steps[i-1].Penalty)
	}
	sb.WriteString(plan.Explain())
	return sb.String(), nil
}

// Analyze runs the plan SSO/Hybrid would execute and returns both the
// plan description and a per-join-step execution trace (EXPLAIN
// ANALYZE).
func Analyze(chain *core.Chain, est *stats.Estimator, opts Options) (string, error) {
	m := opts.metrics()
	j := choosePrefix(chain, est, opts, m)
	plan, err := opts.planAt(chain, j)
	if err != nil {
		return "", err
	}
	var traces []exec.StepTrace
	answers := exec.Run(plan, exec.Options{
		K: opts.K, Scheme: opts.Scheme, Mode: exec.ModeBuckets,
		Parallel: opts.Parallel, Stats: &m.Pipeline, Trace: &traces,
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "relaxations encoded: %d of %d; answers: %d\n", j, chain.Len(), len(answers))
	fmt.Fprintf(&sb, "%-24s %10s %10s %10s %8s %8s\n",
		"step", "candidates", "tuples-in", "tuples-out", "pruned", "buckets")
	for _, t := range traces {
		fmt.Fprintf(&sb, "%-24s %10d %10d %10d %8d %8d\n",
			t.Var, t.Candidates, t.TuplesIn, t.TuplesOut, t.Pruned, t.Buckets)
	}
	return sb.String(), nil
}

// choosePrefix picks how many relaxation steps to encode: the shortest
// prefix whose relaxed query is estimated to produce at least K answers
// (structure-first), extended per the §5.1 rule for the combined scheme;
// the keyword-first scheme requires encoding the whole chain. With a
// template attached, the chosen level is memoized per (K, scheme), so
// only the first search of a shape pays the per-level estimator loop —
// and a restart-corrected level recorded by planBased is reused in
// preference to re-deriving the (undershooting) estimate.
func choosePrefix(chain *core.Chain, est *stats.Estimator, opts Options, m *Metrics) int {
	key := core.LevelKey{K: opts.K, Scheme: opts.Scheme}
	if opts.Template != nil {
		if j, ok := opts.Template.Level(key); ok {
			return j
		}
	}
	j := chain.Len()
	if opts.Scheme != rank.KeywordFirst {
		j = 0
		for ; j <= chain.Len(); j++ {
			m.EstimatorCalls++
			if est.Estimate(chain.QueryAt(j)) >= float64(opts.K) {
				break
			}
		}
		if j > chain.Len() {
			j = chain.Len()
		}
		if opts.Scheme == rank.Combined {
			mC := float64(chain.Original.NumContains())
			base := chain.SSAt(j)
			for j < chain.Len() && chain.SSAt(j+1) > base-mC {
				j++
			}
		}
	}
	if opts.Template != nil {
		opts.Template.SetLevel(key, j)
	}
	return j
}

func toResults(chain *core.Chain, answers []exec.Answer, opts Options, k int) []Result {
	// Precompute per-step signature masks: an answer's minimal admitting
	// relaxation level is the deepest chain step with an unsatisfied
	// dropped predicate.
	encoded := opts.metrics().RelaxationsEncoded
	masks := make([]uint64, encoded+1)
	for j := 1; j <= encoded; j++ {
		masks[j] = chain.StepBits(j)
	}
	results := make([]Result, 0, len(answers))
	for _, a := range answers {
		level := 0
		for j := encoded; j >= 1; j-- {
			if a.Sig&masks[j] != masks[j] {
				level = j
				break
			}
		}
		results = append(results, Result{Node: a.Node, Score: a.Score, Relaxations: level, sig: a.Sig})
	}
	sortResults(results, opts.Scheme)
	if len(results) > k {
		results = results[:k]
	}
	// Materialize the missed-predicate descriptions only for the K
	// survivors: the candidate set can be an order of magnitude larger
	// than K, and Missed is the lone per-answer allocation of this path.
	for i := range results {
		if results[i].Relaxations == 0 {
			continue
		}
		var missed []string
		for j := 1; j <= encoded; j++ {
			if results[i].sig&masks[j] != masks[j] {
				missed = append(missed, chain.Steps[j-1].Desc)
			}
		}
		results[i].Missed = missed
	}
	return results
}

func sortResults(rs []Result, scheme rank.Scheme) {
	slices.SortFunc(rs, func(a, b Result) int {
		if c := a.Score.Compare(b.Score, scheme); c != 0 {
			return -c
		}
		return int(a.Node) - int(b.Node)
	})
}

// ksScorer computes DPO's per-answer keyword scores: for each contains
// predicate of the original query, the IR score of its current context
// (the deepest surviving contains location) restricted to the answer.
type ksScorer struct {
	chain *core.Chain
	doc   *xmltree.Document
	parts []ksPart
}

type ksPart struct {
	res      *ir.Result
	weight   float64
	matches  []xmltree.NodeID
	matchSet map[xmltree.NodeID]bool
	isDist   bool
}

func newKSScorer(chain *core.Chain, level int, q *tpq.Query, ok [][]xmltree.NodeID) *ksScorer {
	s := &ksScorer{chain: chain, doc: chain.Doc()}
	w := chain.Weights()
	for _, l := range chain.ContainsLocsAt(level) {
		idx := q.NodeByID(l.Var)
		if idx < 0 {
			continue
		}
		part := ksPart{
			res:     chain.Index().Eval(l.Expr),
			weight:  w.Contains,
			matches: ok[idx],
			isDist:  idx == q.Dist,
		}
		if !part.isDist {
			part.matchSet = make(map[xmltree.NodeID]bool, len(part.matches))
			for _, n := range part.matches {
				part.matchSet[n] = true
			}
		}
		s.parts = append(s.parts, part)
	}
	return s
}

func (s *ksScorer) ks(answer xmltree.NodeID) float64 {
	total := 0.0
	for i := range s.parts {
		p := &s.parts[i]
		if p.isDist {
			total += p.weight * p.res.ScoreWithin(answer)
			continue
		}
		best := 0.0
		for _, m := range exec.DescendantsInRange(s.doc, p.matches, answer) {
			if sc := p.res.ScoreWithin(m); sc > best {
				best = sc
			}
		}
		if best == 0 {
			// The context may be an ancestor of the answer (e.g. a
			// contains promoted above the distinguished node): use the
			// tightest containing context.
			for a := answer; a != xmltree.InvalidNode; a = s.doc.Parent(a) {
				if p.matchSet[a] {
					best = p.res.ScoreWithin(a)
					break
				}
			}
		}
		total += p.weight * best
	}
	return total
}
