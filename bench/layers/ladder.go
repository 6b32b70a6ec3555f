package layers

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"flexpath"
)

// Span is one timed call into a layer. Spans of one operation share OpID;
// Parent is the index of the span whose work this one is part of, or -1.
type Span struct {
	OpID    int    `json:"op_id"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"` // since the trace began
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// Trace holds a run's spans in memory until the run ends.
type Trace struct {
	epoch time.Time
	Spans []Span
}

func NewTrace() *Trace { return &Trace{epoch: time.Now()} }

// Add records a span and returns its index, for use as a later span's parent.
func (t *Trace) Add(opID int, layer string, parent int, start, end time.Time) int {
	t.Spans = append(t.Spans, Span{
		OpID: opID, Layer: layer, Parent: parent,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.Spans) - 1
}

// Durations returns the length of every span of a layer, in milliseconds.
func (t *Trace) Durations(layer string) []float64 {
	var out []float64
	for _, s := range t.Spans {
		if s.Layer == layer {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// SelfTimes returns, for every span of a layer that has at least one child,
// its duration minus its children's, in milliseconds. The ladder issues a
// layer's call and the calls it is made of one after another rather than
// nested, so a child's share is its duration, not an overlap.
func (t *Trace) SelfTimes(layer string) []float64 {
	children := make([]int64, len(t.Spans))
	has := make([]bool, len(t.Spans))
	for _, s := range t.Spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNS - s.StartNS
			has[s.Parent] = true
		}
	}
	var out []float64
	for i, s := range t.Spans {
		if s.Layer == layer && has[i] {
			out = append(out, float64(s.EndNS-s.StartNS-children[i])/1e6)
		}
	}
	return out
}

// WriteFile writes the spans as one JSON document.
func (t *Trace) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{t.Spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// NamedDoc is one member of the corpus a ladder replays over.
type NamedDoc struct {
	Name string
	Doc  *flexpath.Document
}

// Op is one operation of a workload's mix, as the ladder replays it.
type Op struct {
	Query string
	K     int
	Algo  flexpath.Algorithm
}

// Layer names of the ladder's spans: the repository's package names.
const (
	LayerParse      = "tpq"
	LayerFullText   = "ir"
	LayerChain      = "core.chain"
	LayerPlan       = "core.plan"
	LayerPlanner    = "planner"
	LayerExec       = "exec"
	LayerSemiJoin   = "exec.semijoin"
	LayerTopK       = "topk." // + algorithm name
	LayerDocument   = "document"
	LayerColl       = "collection"
	LayerCollFanout = "collection.fanout"
	// LayerOp marks the spans a traced run of the workload's own loop puts
	// around whole operations; the ladder never uses it.
	LayerOp = "op"
)

// sampledMembers is how many members get the rungs below Document.Search:
// those rebuild a relaxation chain twice per op, which over a whole corpus
// would leave time for only a handful of ops.
const sampledMembers = 3

// Ladder replays operations over a corpus one layer at a time: for each op
// it calls, one after another and each under a span, every layer that has a
// public entry point, from the query parser up to Collection.Search.
type Ladder struct {
	docs    []NamedDoc
	coll    *flexpath.Collection
	sampled map[int]*Member // index into docs -> member with its own indexes
	tr      *Trace

	// SemiJoinNodes is the input size of every semijoin span so far.
	SemiJoinNodes int

	// Counting gates the exact counters below. The caller sets it for the
	// first pass over the ops only: later passes find admitting levels
	// memoized, so their restart counts differ, and how many passes fit in
	// the time allowed must not change a count.
	Counting bool
	// Counts sums exec.Run's counters; Searches, Relaxations (the deepest
	// level any member encoded) and Restarts (summed over members) come from
	// the Metrics of each op's first collection search.
	Counts                          PlanCounts
	Searches, Relaxations, Restarts int
	// Choices counts what the planner picked for each sampled member.
	Choices map[flexpath.Algorithm]int
}

// NewLadder indexes the sampled members afresh and wraps docs in a plain
// collection with no result cache.
func NewLadder(docs []NamedDoc, r *rand.Rand, tr *Trace) (*Ladder, error) {
	l := &Ladder{docs: docs, coll: flexpath.NewCollection(), sampled: map[int]*Member{}, tr: tr, Choices: map[flexpath.Algorithm]int{}}
	for _, d := range docs {
		if err := l.coll.Add(d.Name, d.Doc); err != nil {
			return nil, err
		}
	}
	for _, i := range r.Perm(len(docs)) {
		if len(l.sampled) == sampledMembers {
			break
		}
		l.sampled[i] = NewMember(docs[i].Doc)
	}
	return l, nil
}

// Replay issues one op at every layer. fallbackFT is the full-text
// expression evaluated for ops that have none.
func (l *Ladder) Replay(opID int, op Op, fallbackFT string) error {
	span := func(layer string, parent int, f func() error) (int, error) {
		start := time.Now()
		err := f()
		return l.tr.Add(opID, layer, parent, start, time.Now()), err
	}

	var tq Query
	if _, err := span(LayerParse, -1, func() (err error) { tq, err = ParseQuery(op.Query); return }); err != nil {
		return err
	}
	q, err := flexpath.ParseQuery(op.Query)
	if err != nil {
		return err
	}

	// Collection rungs. The first, untimed search builds every member's
	// plan template, so the timed ones run in the steady state the
	// Document rungs below them run in.
	opts := flexpath.SearchOptions{K: op.K, Algorithm: op.Algo, NoCache: true, Workers: 1}
	var first flexpath.Metrics
	warm := opts
	warm.Metrics = &first
	if _, err := l.coll.Search(q, warm); err != nil {
		return err
	}
	if l.Counting {
		// Only the first search of a shape can restart: it leaves the
		// admitting level memoized in each member's template.
		l.Searches++
		l.Relaxations += first.RelaxationsEncoded
		l.Restarts += first.Restarts
	}
	collSpan, err := span(LayerColl, -1, func() error { _, err := l.coll.Search(q, opts); return err })
	if err != nil {
		return err
	}
	fan := opts
	fan.Workers = 0
	if _, err := span(LayerCollFanout, -1, func() error { _, err := l.coll.Search(q, fan); return err }); err != nil {
		return err
	}

	for i, d := range l.docs {
		m := l.sampled[i]
		var met flexpath.Metrics
		dopts := opts
		if m != nil {
			dopts.Metrics = &met // names the algorithm that ran
		}
		docSpan, err := span(LayerDocument, collSpan, func() error { _, err := d.Doc.Search(q, dopts); return err })
		if err != nil {
			return err
		}
		if m == nil {
			continue
		}
		ran, err := flexpath.ParseAlgorithm(strings.ToLower(met.Algorithm))
		if err != nil {
			return fmt.Errorf("layers: Document.Search reported algorithm %q: %w", met.Algorithm, err)
		}
		if err := l.replayMember(span, m, tq, op, ran, docSpan, fallbackFT); err != nil {
			return err
		}
	}
	return nil
}

// replayMember issues the rungs below Document.Search on one member.
func (l *Ladder) replayMember(span func(string, int, func() error) (int, error),
	m *Member, tq Query, op Op, ran flexpath.Algorithm, docSpan int, fallbackFT string) error {
	// Full text first, and on the first pass only: the index memoizes
	// evaluations by expression, the chain build below evaluates the same
	// ones, and a memo hit is not what a new query pays.
	if l.Counting {
		if _, err := span(LayerFullText, -1, func() error { _, err := m.EvalFullText(tq, fallbackFT); return err }); err != nil {
			return err
		}
	}
	// A throwaway template finds the admitting level (that run builds and
	// memoizes the plan), so that the timed template can build its plan
	// cold.
	scout, err := m.BuildTemplate(tq)
	if err != nil {
		return err
	}
	level := m.AdmittingLevel(scout, op.K)
	var tmpl Template
	if _, err := span(LayerChain, -1, func() (err error) { tmpl, err = m.BuildTemplate(tq); return }); err != nil {
		return err
	}
	var plan Plan
	if _, err := span(LayerPlan, -1, func() (err error) { plan, err = tmpl.PlanAt(level); return }); err != nil {
		return err
	}
	var choice flexpath.Algorithm
	span(LayerPlanner, -1, func() error { choice = m.Choose(tmpl, op.K); return nil })
	if l.Counting {
		l.Choices[choice]++
	}

	RunPlan(plan, op.K) // computes the plan's leaf candidate lists, which it memoizes
	var pc PlanCounts
	span(LayerExec, -1, func() error { pc = RunPlan(plan, op.K); return nil })
	if l.Counting {
		l.Counts.Answers += pc.Answers
		l.Counts.TuplesGenerated += pc.TuplesGenerated
		l.Counts.TuplesPruned += pc.TuplesPruned
	}

	span(LayerSemiJoin, -1, func() error { l.SemiJoinNodes += m.SemiJoins(tq); return nil })

	for _, a := range []flexpath.Algorithm{flexpath.DPO, flexpath.SSO, flexpath.Hybrid} {
		if _, err := m.TopK(a, tmpl, op.K); err != nil { // builds the algorithm's memoized plans
			return err
		}
		parent := -1
		if a == ran {
			parent = docSpan
		}
		if _, err := span(LayerTopK+strings.ToLower(a.String()), parent, func() error { _, err := m.TopK(a, tmpl, op.K); return err }); err != nil {
			return err
		}
	}
	return nil
}
