// Package planner chooses the algorithm behind the public Auto search
// mode. The choice is a rule over the query and the ranking scheme that
// follows the paper's §6 (DPO wins when few relaxations must be walked,
// one encoded plan when many must be):
//
//   - Under the keyword-first scheme a query with a contains predicate
//     runs Hybrid. DPO would have to walk the whole relaxation chain and
//     re-score the keyword variable at every level; one plan carries
//     every relaxation as an optional variable.
//   - Everywhere else DPO runs. Its levels are reduced exact plans
//     (exec.Run never joins a variable that only has to exist), which
//     beat one plan carrying every relaxation as an optional variable.
//
// The rule reads nothing else: no statistics, no plan, no history. So a
// search, every member it fans out to and every repeat of it choose the
// same algorithm.
package planner

import (
	"flexpath/internal/core"
	"flexpath/internal/rank"
	"flexpath/internal/stats"
	"flexpath/internal/tpq"
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

// The reasons name the rule's two branches, one per algorithm.
const (
	reasonHybrid = "keyword-first with contains"
	reasonDPO    = "not keyword-first with contains"
)

// Choice is one planning decision.
type Choice struct {
	// Algo is the dispatched algorithm.
	Algo Algo
	// Reason names the rule's branch that chose Algo.
	Reason string
}

// Rule chooses the algorithm for a search of q under scheme.
func Rule(q *tpq.Query, scheme rank.Scheme) Choice {
	if scheme == rank.KeywordFirst && q.NumContains() > 0 {
		return Choice{Algo: Hybrid, Reason: reasonHybrid}
	}
	return Choice{Algo: DPO, Reason: reasonDPO}
}

// Planner applies Rule to a relaxation chain. It holds no state.
type Planner struct{}

// New returns a planner. The estimator is not read: Rule needs only the
// query and the scheme.
func New(*stats.Estimator) *Planner { return &Planner{} }

// Choose is Rule over the chain's original query; the template and K do
// not enter the choice.
func (*Planner) Choose(chain *core.Chain, _ *core.Template, _ int, scheme rank.Scheme) Choice {
	return Rule(chain.Original, scheme)
}
