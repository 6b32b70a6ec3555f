package core

import (
	"sync"

	"flexpath/internal/exec"
	"flexpath/internal/rank"
)

// LevelKey identifies one estimator-chosen relaxation prefix: the prefix
// depends only on K and the ranking scheme once the chain is fixed.
type LevelKey struct {
	K      int
	Scheme rank.Scheme
}

// Template is a reusable evaluation skeleton for one (query, weights,
// hierarchy) triple over one document: the relaxation chain plus lazily
// memoized join plans and estimator-chosen prefix levels. A template hit
// in the plan cache therefore skips not just the chain build and its
// full-text evaluations (the chain holds their results) but the
// relaxation enumeration (the per-level estimator loop of the
// plan-based algorithms) and the join-plan
// construction — and, via the plan's own candidate-list memo (exec.Run),
// the leaf evaluation of the shared plans.
//
// All memoized state is safe for concurrent searches: chains and plans
// are never mutated by execution (exec.Run keeps its per-run state in
// locals), and the memo maps are guarded by a mutex. Documents are
// immutable, so nothing here ever goes stale.
type Template struct {
	// Chain is the query's relaxation chain; it is fixed at construction.
	Chain *Chain

	mu sync.Mutex
	// plans memoizes Chain.PlanAt (the scored SSO/Hybrid plan per encoded
	// prefix); exact memoizes Chain.ExactPlanAt (DPO's per-level plans).
	plans map[int]*exec.Plan
	exact map[int]*exec.Plan
	// levels memoizes the admitting relaxation level per (K, scheme).
	// It is seeded by the estimator loop and overwritten with the final
	// level after a plan-based run restarts past the estimate, so later
	// searches with the same K start at the level that actually produced
	// K answers instead of repeating the restarts.
	levels map[LevelKey]int
}

// NewTemplate wraps a built chain in an empty template.
func NewTemplate(c *Chain) *Template {
	return &Template{
		Chain:  c,
		plans:  make(map[int]*exec.Plan),
		exact:  make(map[int]*exec.Plan),
		levels: make(map[LevelKey]int),
	}
}

// PlanAt returns the memoized scored plan encoding the first j chain
// steps, building it on first use. Errors are not memoized.
func (t *Template) PlanAt(j int) (*exec.Plan, error) {
	return t.plan(t.plans, j, t.Chain.PlanAt)
}

// ExactPlanAt returns the memoized exact-evaluation plan for level j,
// building it on first use.
func (t *Template) ExactPlanAt(j int) (*exec.Plan, error) {
	return t.plan(t.exact, j, t.Chain.ExactPlanAt)
}

func (t *Template) plan(memo map[int]*exec.Plan, j int, build func(int) (*exec.Plan, error)) (*exec.Plan, error) {
	t.mu.Lock()
	if p, ok := memo[j]; ok {
		t.mu.Unlock()
		return p, nil
	}
	t.mu.Unlock()
	// Build outside the lock: plan construction is the expensive step,
	// and concurrent searches at different levels must not serialize.
	p, err := build(j)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if prev, ok := memo[j]; ok {
		// A concurrent build won the race; share its plan so every run
		// benefits from the same memoized candidate lists.
		p = prev
	} else {
		memo[j] = p
	}
	t.mu.Unlock()
	return p, nil
}

// Level returns the memoized admitting level for key, if known.
func (t *Template) Level(key LevelKey) (int, bool) {
	t.mu.Lock()
	j, ok := t.levels[key]
	t.mu.Unlock()
	return j, ok
}

// SetLevel records the admitting level for key, overwriting any earlier
// (estimate-only) value.
func (t *Template) SetLevel(key LevelKey, j int) {
	t.mu.Lock()
	t.levels[key] = j
	t.mu.Unlock()
}
