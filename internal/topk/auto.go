package topk

import (
	"time"

	"flexpath/internal/core"
	"flexpath/internal/obs"
	"flexpath/internal/planner"
	"flexpath/internal/stats"
)

// Auto dispatches one search to DPO, SSO or Hybrid — whichever the
// cost-based planner predicts cheapest for this query and K — and feeds
// the observed run time and restart count back into the planner's
// calibrator. The answers are identical to those of any fixed algorithm;
// only the evaluation cost (and the DPO-vs-plan difference in per-answer
// relaxation detail) depends on the choice. Planning time is recorded
// under obs.StagePlan.
func Auto(chain *core.Chain, est *stats.Estimator, pl *planner.Planner, opts Options) ([]Result, planner.Choice) {
	tPlan := time.Now()
	choice := pl.Choose(chain, opts.Template, opts.K, opts.Scheme)
	opts.Span.Rec(obs.StagePlan, time.Since(tPlan))

	// Fix the counters before dispatch: the algorithm receives opts by
	// value, so counters it created itself would never reach Observe.
	m := opts.metrics()
	start := time.Now()
	var results []Result
	switch choice.Algo {
	case planner.DPO:
		results = DPO(nil, chain, opts)
	case planner.SSO:
		results = SSO(chain, est, opts)
	default:
		results = Hybrid(chain, est, opts)
	}
	// A cancelled run is truncated: its wall time says nothing about the
	// algorithm's true cost, so it must not calibrate the model.
	if !opts.cancelled() {
		pl.Observe(choice, time.Since(start), m.Restarts)
	}
	return results, choice
}
