// Package planner implements the cost-based algorithm choice behind the
// public Auto search mode: per query it predicts the evaluation cost of
// DPO, SSO and Hybrid from document statistics and the shape of the
// relaxation chain, and picks the predicted winner.
//
// The model follows the paper's §6 findings about when each algorithm
// wins: DPO when few relaxation levels admit the top K (its per-level
// passes stay small), the plan-based algorithms when many levels must be
// encoded (one pass beats repeated re-evaluation), and Hybrid over SSO
// because SSO pays a resort of the intermediate list at every join.
// Costs are expressed in abstract work units — candidate nodes scanned
// plus tuples materialized — combining the selectivity estimator's
// per-level answer estimates with per-plan join-cost inputs from
// internal/exec. Two online mechanisms correct the static model as
// traffic flows:
//
//   - a per-algorithm EWMA of observed nanoseconds per predicted unit
//     calibrates the unit scale (and exposes a calibration error, the
//     mean |log(actual/predicted)|, so operators can see how trustworthy
//     the model currently is), and
//   - an EWMA of restarts per plan-based run demotes SSO/Hybrid to DPO
//     when selectivity estimates prove unreliable for the workload:
//     restarts mean the estimator keeps undershooting K, and DPO's
//     level-at-a-time evaluation is the strategy that never restarts.
package planner

import (
	"fmt"
	"math"
	"sync"
	"time"

	"flexpath/internal/core"
	"flexpath/internal/exec"
	"flexpath/internal/rank"
	"flexpath/internal/stats"
)

// Algo identifies one of the three dispatchable top-K algorithms.
type Algo int

const (
	// DPO evaluates one relaxation level at a time.
	DPO Algo = iota
	// SSO runs one encoded plan with score-sorted intermediate lists.
	SSO
	// Hybrid runs one encoded plan with signature buckets.
	Hybrid

	numAlgos int = iota
)

// String returns the algorithm name as used in metrics labels.
func (a Algo) String() string {
	switch a {
	case DPO:
		return "DPO"
	case SSO:
		return "SSO"
	}
	return "Hybrid"
}

// Names returns the algorithm names in declaration order; serving layers
// use it to render per-algorithm state deterministically.
func Names() []string {
	out := make([]string, numAlgos)
	for i := range out {
		out[i] = Algo(i).String()
	}
	return out
}

// Cost-model constants. The absolute scale cancels in the comparison;
// only the ratios matter, and the per-algorithm EWMA calibration absorbs
// residual scale error between algorithms.
const (
	// optionalVarFactor inflates an encoded plan's tuple work per
	// optional variable: optional joins cannot reject tuples, so every
	// optional variable widens the intermediate result.
	optionalVarFactor = 0.15
	// bucketFactor is Hybrid's per-tuple bucket bookkeeping.
	bucketFactor = 0.05
	// sortFactor scales SSO's per-join resort term (tuples · log tuples).
	// Re-fit for the columnar execution core: the typed SortFunc resort
	// over arena scratch costs visibly less per tuple than the reflective
	// sort.Slice the old 0.30 was tuned against.
	sortFactor = 0.20
	// calibAlpha is the EWMA weight of a new ns-per-unit sample.
	calibAlpha = 0.3
	// restartAlpha is the EWMA weight of a new restarts-per-run sample.
	restartAlpha = 0.2
	// guardMinRuns is how many plan-based runs must be observed before
	// the restart guard may trigger.
	guardMinRuns = 8
	// guardRate is the restarts-per-run EWMA above which the guard
	// demotes plan-based choices to DPO.
	guardRate = 1.0
)

// Reason keys (low-cardinality, used as metric labels).
const (
	// ReasonMinCost marks a normal minimum-predicted-cost choice.
	ReasonMinCost = "min-cost"
	// ReasonRestartGuard marks a demotion to DPO by the restart guard.
	ReasonRestartGuard = "restart-guard"
	// ReasonPlanError marks a fallback to DPO because the encoded plan
	// could not be built (DPO builds its own per-level plans and reports
	// the underlying error itself).
	ReasonPlanError = "plan-error"
)

// Choice is one planning decision. It carries the predicted units so the
// observation that follows the run can be matched back to the prediction.
type Choice struct {
	// Algo is the dispatched algorithm.
	Algo Algo
	// Reason is the low-cardinality reason key (ReasonMinCost, ...).
	Reason string
	// Explain is a human-readable account of the decision.
	Explain string
	// Level is the predicted admitting level: the shortest chain prefix
	// whose relaxed query is estimated to produce at least K answers.
	Level int
	// Units and PredictedNs are the per-algorithm predicted work units
	// and calibrated nanoseconds, indexed by Algo.
	Units       [numAlgos]float64
	PredictedNs [numAlgos]float64
}

// ewma is an exponentially weighted moving average seeded by its first
// sample. During warmup it tracks the cumulative mean: a new sample gets
// weight max(alpha, 1/n), so the first few observations are averaged
// instead of letting the very first one dominate — recalibration for the
// columnar kernels showed the old first-sample seeding pinned ns-per-unit
// to whichever (cold-cache) run happened to arrive first.
type ewma struct {
	v float64
	n uint64
}

func (e *ewma) add(x, alpha float64) {
	e.n++
	if w := 1 / float64(e.n); w > alpha {
		alpha = w
	}
	e.v = alpha*x + (1-alpha)*e.v
}

// Calibration is the online half of the model: the EWMAs and decision
// counters. It describes the host, not a document, so a collection keeps
// one and binds every member's Planner to it. The zero value is
// uncalibrated. Safe for concurrent use.
type Calibration struct {
	mu sync.Mutex
	// nsPerUnit calibrates predicted units to observed nanoseconds, per
	// algorithm (units are comparable across algorithms only up to a
	// per-algorithm constant the static model cannot know).
	nsPerUnit [numAlgos]ewma
	// calErr tracks |log(actual/predicted)| per algorithm — 0 means the
	// calibrated model currently predicts its own run times perfectly.
	calErr [numAlgos]ewma
	// restarts tracks restarts per observed plan-based run.
	restarts ewma
	choices  [numAlgos]uint64
	reasons  map[string]uint64
	observed uint64
}

// Planner is one document's cost model: its estimator, bound to the
// calibration its observations feed. Safe for concurrent use.
type Planner struct {
	est *stats.Estimator
	*Calibration
}

// New returns a planner reading est, with a calibration of its own.
func New(est *stats.Estimator) *Planner {
	return &Planner{est: est, Calibration: &Calibration{}}
}

// Bind returns a planner reading est and sharing cal.
func Bind(est *stats.Estimator, cal *Calibration) Planner {
	return Planner{est: est, Calibration: cal}
}

// Choose predicts the cheapest algorithm for one top-K search over the
// chain. It never fails: when the encoded plan cannot be built it falls
// back to DPO and lets DPO surface the error. The template memoizes the
// admitting level and the encoded plan across searches of the same shape
// (and shares them with the dispatched algorithm within one search), so
// repeated Auto queries skip the per-level estimator loop and the plan
// build here — the work obs.StagePlan prices. A nil template plans
// through a fresh one for the chain.
func (p *Planner) Choose(chain *core.Chain, tmpl *core.Template, k int, scheme rank.Scheme) Choice {
	if k < 1 {
		k = 1
	}
	if tmpl == nil {
		tmpl = core.NewTemplate(chain)
	}
	c := Choice{Level: p.admittingLevel(chain, tmpl, k, scheme)}
	c.Units[DPO] = p.dpoUnits(chain, c.Level, scheme)

	plan, err := tmpl.PlanAt(c.Level)
	if err != nil {
		c.Algo, c.Reason = DPO, ReasonPlanError
		c.Explain = fmt.Sprintf("level %d plan failed (%v); falling back to DPO", c.Level, err)
		p.record(&c)
		return c
	}
	cost := exec.EstimateCost(plan)
	// Estimated answers of the loosest encoded level stand in for the
	// intermediate tuple population of the single-plan algorithms.
	t := p.est.Estimate(chain.QueryAt(c.Level))
	tuples := t * float64(cost.Vars) * (1 + optionalVarFactor*float64(cost.OptionalVars))
	// MergeUnits prices the structural joins under the galloping kernels
	// (near-linear merges with logarithmic anchor probes) instead of the
	// raw candidate population the pre-columnar model charged.
	planBase := cost.MergeUnits + tuples
	// An undershooting estimate forces the plan algorithms to extend the
	// prefix and rerun the whole plan; charge the workload's observed
	// restart rate as expected extra passes.
	rerun := 1 + p.restartRate()
	c.Units[Hybrid] = (planBase + bucketFactor*tuples) * rerun
	c.Units[SSO] = (planBase + sortFactor*tuples*math.Log2(2+t)) * rerun

	p.mu.Lock()
	for a := 0; a < numAlgos; a++ {
		c.PredictedNs[a] = c.Units[a] * p.nsPerUnitLocked(Algo(a))
	}
	guard := p.restarts.n >= guardMinRuns && p.restarts.v > guardRate
	p.mu.Unlock()

	// Preference order breaks exact ties toward the cheaper-to-be-wrong
	// choices: Hybrid (never resorts), then DPO, then SSO.
	c.Algo, c.Reason = Hybrid, ReasonMinCost
	if c.PredictedNs[DPO] < c.PredictedNs[c.Algo] {
		c.Algo = DPO
	}
	if c.PredictedNs[SSO] < c.PredictedNs[c.Algo] {
		c.Algo = SSO
	}
	if guard && c.Algo != DPO {
		c.Algo, c.Reason = DPO, ReasonRestartGuard
	}
	c.Explain = fmt.Sprintf(
		"level %d/%d, est %.0f answers for K=%d; predicted ms dpo=%.2f sso=%.2f hybrid=%.2f (%s)",
		c.Level, chain.Len(), t, k,
		c.PredictedNs[DPO]/1e6, c.PredictedNs[SSO]/1e6, c.PredictedNs[Hybrid]/1e6, c.Reason)
	p.record(&c)
	return c
}

// record counts the decision.
func (cal *Calibration) record(c *Choice) {
	cal.mu.Lock()
	if cal.reasons == nil {
		cal.reasons = make(map[string]uint64)
	}
	cal.choices[c.Algo]++
	cal.reasons[c.Reason]++
	cal.mu.Unlock()
}

// Observe feeds one finished Auto run back into the calibrator: the
// wall time of the dispatched algorithm and the restarts its metrics
// reported. Cancelled or truncated runs must not be observed.
func (cal *Calibration) Observe(c Choice, took time.Duration, restarts int) {
	ns := float64(took)
	if ns <= 0 {
		return
	}
	cal.mu.Lock()
	defer cal.mu.Unlock()
	cal.observed++
	if u := c.Units[c.Algo]; u > 0 {
		if predicted := u * cal.nsPerUnitLocked(c.Algo); predicted > 0 {
			cal.calErr[c.Algo].add(math.Abs(math.Log(ns/predicted)), calibAlpha)
		}
		cal.nsPerUnit[c.Algo].add(ns/u, calibAlpha)
	}
	if c.Algo != DPO {
		cal.restarts.add(float64(restarts), restartAlpha)
	}
}

// nsPerUnitLocked returns the calibrated scale for a, defaulting to 1
// (raw unit comparison) before any observation. Callers hold cal.mu.
func (cal *Calibration) nsPerUnitLocked(a Algo) float64 {
	if cal.nsPerUnit[a].n == 0 {
		return 1
	}
	return cal.nsPerUnit[a].v
}

// restartRate returns the restarts-per-run EWMA (0 before observations).
func (cal *Calibration) restartRate() float64 {
	cal.mu.Lock()
	defer cal.mu.Unlock()
	if cal.restarts.n == 0 {
		return 0
	}
	return cal.restarts.v
}

// admittingLevel predicts the smallest chain prefix whose relaxed query
// is estimated to produce at least k answers, mirroring the prefix rule
// the plan-based algorithms use (keyword-first must encode the whole
// chain; the combined scheme extends the prefix per §5.1). The rule is
// deliberately identical to topk's choosePrefix, so the two share one
// memoized level per (K, scheme) on the template.
func (p *Planner) admittingLevel(chain *core.Chain, tmpl *core.Template, k int, scheme rank.Scheme) int {
	key := core.LevelKey{K: k, Scheme: scheme}
	if j, ok := tmpl.Level(key); ok {
		return j
	}
	j := chain.Len()
	if scheme != rank.KeywordFirst {
		j = 0
		for ; j <= chain.Len(); j++ {
			if p.est.Estimate(chain.QueryAt(j)) >= float64(k) {
				break
			}
		}
		if j > chain.Len() {
			j = chain.Len()
		}
		if scheme == rank.Combined {
			m := float64(chain.Original.NumContains())
			base := chain.SSAt(j)
			for j < chain.Len() && chain.SSAt(j+1) > base-m {
				j++
			}
		}
	}
	tmpl.SetLevel(key, j)
	return j
}

// dpoUnits sums the per-level pass costs DPO is predicted to pay: one
// full evaluation of every level up to its stop level, which extends
// past the admitting level through score ties exactly as DPO's pruning
// rule does.
func (p *Planner) dpoUnits(chain *core.Chain, level int, scheme rank.Scheme) float64 {
	stop := level
	switch scheme {
	case rank.StructureFirst:
		for stop < chain.Len() && chain.SSAt(stop+1) >= chain.SSAt(level) {
			stop++
		}
	case rank.Combined:
		m := float64(chain.Original.NumContains())
		for stop < chain.Len() && chain.SSAt(stop+1) > chain.SSAt(level)-m {
			stop++
		}
	case rank.KeywordFirst:
		stop = chain.Len()
	}
	units := 0.0
	for j := 0; j <= stop; j++ {
		units += p.est.PassUnits(chain.QueryAt(j))
	}
	return units
}

// Stats is a snapshot of the planner's decisions and calibration state,
// keyed by algorithm name where per-algorithm.
type Stats struct {
	// Choices counts dispatches per algorithm; Reasons counts decisions
	// per reason key.
	Choices map[string]uint64 `json:"choices"`
	Reasons map[string]uint64 `json:"reasons"`
	// NsPerUnit is the calibrated nanoseconds per predicted work unit
	// (absent until the algorithm has been observed at least once).
	NsPerUnit map[string]float64 `json:"ns_per_unit"`
	// CalibrationError is the EWMA of |log(actual/predicted)| run time;
	// 0 means the calibrated model is currently exact, ln 2 ≈ 0.69 means
	// predictions are off by about 2x.
	CalibrationError map[string]float64 `json:"calibration_error"`
	// RestartRate is the EWMA of restarts per plan-based run feeding the
	// guard; Observations counts calibrated runs.
	RestartRate  float64 `json:"restart_rate"`
	Observations uint64  `json:"observations"`
}

// Snapshot returns the current calibration state.
func (cal *Calibration) Snapshot() Stats {
	s := Stats{
		Choices:          make(map[string]uint64),
		Reasons:          make(map[string]uint64),
		NsPerUnit:        make(map[string]float64),
		CalibrationError: make(map[string]float64),
	}
	cal.mu.Lock()
	defer cal.mu.Unlock()
	for a := 0; a < numAlgos; a++ {
		name := Algo(a).String()
		if cal.choices[a] > 0 {
			s.Choices[name] = cal.choices[a]
		}
		if cal.nsPerUnit[a].n > 0 {
			s.NsPerUnit[name] = cal.nsPerUnit[a].v
		}
		if cal.calErr[a].n > 0 {
			s.CalibrationError[name] = cal.calErr[a].v
		}
	}
	for r, n := range cal.reasons {
		s.Reasons[r] = n
	}
	if cal.restarts.n > 0 {
		s.RestartRate = cal.restarts.v
	}
	s.Observations = cal.observed
	return s
}
