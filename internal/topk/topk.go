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
	"flexpath/internal/obs"
	"flexpath/internal/rank"
	"flexpath/internal/stats"
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
	// Metrics, when non-nil, accumulates work counters.
	Metrics *Metrics
	// Span, when non-nil, receives per-stage latency: the algorithms
	// record join/plan execution time under obs.StageJoin. A nil span
	// costs one pointer check per plan run.
	Span *obs.Span
	// Template memoizes the per-level join plans and the estimator-chosen
	// prefix levels across runs of the same (query, weights, hierarchy)
	// triple (see core.Template); it must hold the chain the algorithm is
	// given. A run without one plans through a fresh template of its own.
	Template *core.Template
}

// ensureTemplate attaches a fresh template for the chain when the caller
// passed none: the algorithms always plan through a template.
func (o *Options) ensureTemplate(chain *core.Chain) {
	if o.Template == nil {
		o.Template = core.NewTemplate(chain)
	}
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
// cost is one full plan pass per relaxation level. The evaluator argument
// is unused and may be nil; it keeps the signature bench/layers calls.
func DPO(_ *exec.Evaluator, chain *core.Chain, opts Options) []Result {
	opts.ensureTemplate(chain)
	m := opts.metrics()
	k := opts.K
	var results []Result
	seen := make(map[xmltree.NodeID]bool)

	// One scratch arena serves every relaxation level: each level's
	// tuple buffers and binding blocks are carved from it and recycled
	// wholesale by the Reset below once the level's answers have been
	// copied into results.
	arena := exec.GetArena()
	defer exec.PutArena(arena)

	// lastIfFilled is the last level DPO runs once it holds K answers at
	// level.
	m0 := chain.Original.NumContains()
	lastIfFilled := func(level int) int {
		j := level
		switch opts.Scheme {
		case rank.StructureFirst:
			// Later levels have strictly lower structural scores except
			// for zero-penalty steps; keep going through ties.
			for j < chain.Len() && chain.SSAt(j+1) >= chain.SSAt(level) {
				j++
			}
		case rank.Combined:
			// §5.1 pruning rule: with m contains predicates, answers of
			// relaxations whose ss drops below ss(i) - m cannot reach the
			// top-K.
			for j < chain.Len() && chain.SSAt(j+1) > chain.SSAt(level)-float64(m0) {
				j++
			}
		case rank.KeywordFirst:
			// An answer with the worst structural score might still make
			// the top-K: all relaxations must be evaluated.
			j = chain.Len()
		}
		return j
	}
	stopLevel := chain.Len()
	reached := false
	for level := 0; level <= stopLevel; level++ {
		// DPO's per-relaxation loop is the algorithm's dominant cost;
		// observe cancellation between levels so a timed-out request
		// stops re-evaluating ever larger relaxed queries.
		if opts.cancelled() {
			return nil
		}
		arena.Reset()
		plan, err := opts.Template.ExactPlanAt(level)
		if err != nil {
			// A level whose plan cannot be built was never evaluated:
			// bail before touching the work counters.
			return nil
		}
		m.QueriesEvaluated++
		m.RelaxationsEncoded = level
		ss := chain.SSAt(level)
		// A level that would be the last one run should it fill K needs
		// only its K best answers: the overall top K lie among them and
		// the earlier levels' answers. Any other level runs exhaustively,
		// since a later level must exclude every answer it found; a level
		// run with K that returns fewer than K has returned them all. K
		// less the answers held would not do: an earlier answer can rank
		// below this level's, by keyword score under Combined or by node
		// on a tie.
		last := stopLevel
		if !reached {
			last = lastIfFilled(level)
		}
		levelK := 0
		if last == level {
			levelK = k
		}
		// Answers found at previous levels are excluded inside the plan
		// (not just post-hoc), so each level's pass only explores data
		// that can still produce new answers — the paper's
		// avoid-recomputation device (§5.2.2).
		var levelAnswers []exec.Answer
		opts.timeJoin(func() {
			levelAnswers = exec.Run(plan, exec.Options{
				K: levelK, Scheme: opts.Scheme, Stats: &m.Pipeline,
				Exclude: seen, Ctx: opts.Ctx, Arena: arena,
			})
		})
		// Every answer of an exact plan scores the level's ss, so Run's
		// ranking is already the level's block in final order.
		for _, a := range levelAnswers {
			if seen[a.Node] {
				continue
			}
			seen[a.Node] = true
			results = append(results, Result{
				Node:        a.Node,
				Score:       rank.Score{SS: ss, KS: a.Score.KS},
				Relaxations: level,
			})
		}
		if len(results) >= k && !reached {
			reached, stopLevel = true, last
		}
	}
	sortResults(results, opts.Scheme)
	// Copy the top K out, so that a cached part does not pin every
	// answer the levels found.
	out := make([]Result, min(len(results), k))
	copy(out, results)
	return out
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
	opts.ensureTemplate(chain)
	m := opts.metrics()
	k := opts.K
	j := choosePrefix(chain, est, opts)
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
		plan, err := opts.Template.PlanAt(j)
		if err != nil {
			return nil
		}
		m.PlansRun++
		m.RelaxationsEncoded = j
		var answers []exec.Answer
		opts.timeJoin(func() {
			answers = exec.Run(plan, exec.Options{
				K:      k,
				Scheme: opts.Scheme,
				Mode:   mode,
				Stats:  &m.Pipeline,
				Ctx:    opts.Ctx,
				Arena:  arena,
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
			opts.Template.SetLevel(core.LevelKey{K: k, Scheme: opts.Scheme}, j)
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
	opts.ensureTemplate(chain)
	j := choosePrefix(chain, est, opts)
	plan, err := opts.Template.PlanAt(j)
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
// plan description and a per-step execution trace (EXPLAIN ANALYZE). The
// trace has one row per step Run takes, whose candidates are the
// variable's semijoin-reduced list; a variable that only has to exist is
// never joined, and the description marks it [exists: semijoin]. A
// variable marked [best: scored in place] is not joined either: its row
// counts the tuples it scored, and they leave it one for one or, at a
// step marked [then best per ...], one per group. A row's scored column
// counts the candidates whose gains the step evaluated; a root row that
// scored fewer than its candidates stopped at its K-th answer, every
// answer tying. The header's
// "answers: N" counts what the run returned, at most K.
func Analyze(chain *core.Chain, est *stats.Estimator, opts Options) (string, error) {
	opts.ensureTemplate(chain)
	m := opts.metrics()
	j := choosePrefix(chain, est, opts)
	plan, err := opts.Template.PlanAt(j)
	if err != nil {
		return "", err
	}
	var traces []exec.StepTrace
	answers := exec.Run(plan, exec.Options{
		K: opts.K, Scheme: opts.Scheme, Mode: exec.ModeBuckets,
		Stats: &m.Pipeline, Trace: &traces, Ctx: opts.Ctx,
	})
	if opts.cancelled() {
		return "", opts.Ctx.Err()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "relaxations encoded: %d of %d; answers: %d\n", j, chain.Len(), len(answers))
	sb.WriteString(plan.Explain())
	fmt.Fprintf(&sb, "%-24s %10s %10s %10s %10s %8s %8s\n",
		"step", "candidates", "tuples-in", "tuples-out", "scored", "pruned", "buckets")
	for _, t := range traces {
		fmt.Fprintf(&sb, "%-24s %10d %10d %10d %10d %8d %8d\n",
			t.Var, t.Candidates, t.TuplesIn, t.TuplesOut, t.Scored, t.Pruned, t.Buckets)
	}
	return sb.String(), nil
}

// choosePrefix picks how many relaxation steps to encode: the shortest
// prefix whose relaxed query is estimated to produce at least K answers
// (structure-first), extended per the §5.1 rule for the combined scheme;
// the keyword-first scheme requires encoding the whole chain. The chosen
// level is memoized on the template per (K, scheme), so only the first
// search of a shape pays the per-level estimator loop — and a
// restart-corrected level recorded by planBased is reused in preference
// to re-deriving the (undershooting) estimate.
func choosePrefix(chain *core.Chain, est *stats.Estimator, opts Options) int {
	key := core.LevelKey{K: opts.K, Scheme: opts.Scheme}
	if j, ok := opts.Template.Level(key); ok {
		return j
	}
	j := chain.Len()
	if opts.Scheme != rank.KeywordFirst {
		j = 0
		for ; j <= chain.Len(); j++ {
			if est.Estimate(chain.QueryAt(j), chain.FullText) >= float64(opts.K) {
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
	opts.Template.SetLevel(key, j)
	return j
}

// toResults converts the at most K answers Run returned, already in final
// order, into exactly as many results. Answers that satisfy the same
// encoded predicates share one Missed list, built once: the results must
// not be written to.
func toResults(chain *core.Chain, answers []exec.Answer, opts Options, k int) []Result {
	// Precompute per-step signature masks: an answer's minimal admitting
	// relaxation level is the deepest chain step with an unsatisfied
	// dropped predicate.
	encoded := opts.metrics().RelaxationsEncoded
	masks := make([]uint64, encoded+1)
	var all uint64
	for j := 1; j <= encoded; j++ {
		masks[j] = chain.StepBits(j)
		all |= masks[j]
	}
	// The first signatures seen are searched in a short list on the
	// stack; past its size a map indexes them all, so a lookup costs at
	// most len(few) comparisons however many signatures there are.
	type level struct {
		sig         uint64
		relaxations int
		missed      []string
	}
	var few [16]level
	levels := few[:0]
	var index map[uint64]int
	results := make([]Result, min(len(answers), k))
	for i, a := range answers[:len(results)] {
		sig := a.Sig & all
		li := -1
		if index != nil {
			if j, ok := index[sig]; ok {
				li = j
			}
		} else {
			li = slices.IndexFunc(levels, func(l level) bool { return l.sig == sig })
		}
		if li < 0 {
			l := level{sig: sig}
			for j := encoded; j >= 1; j-- {
				if sig&masks[j] != masks[j] {
					l.relaxations = j
					break
				}
			}
			for j := 1; j <= l.relaxations; j++ {
				if sig&masks[j] != masks[j] {
					l.missed = append(l.missed, chain.Steps[j-1].Desc)
				}
			}
			if len(levels) == len(few) {
				index = make(map[uint64]int, 2*len(few))
				for j, l := range levels {
					index[l.sig] = j
				}
			}
			li, levels = len(levels), append(levels, l)
			if index != nil {
				index[sig] = li
			}
		}
		l := &levels[li]
		results[i] = Result{Node: a.Node, Score: a.Score, Relaxations: l.relaxations, Missed: l.missed}
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
