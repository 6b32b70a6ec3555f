// Package layers replays benchmark operations one layer at a time.
//
// This file is the benchmark's whole dependence on the repository's internal
// packages: every entry point of internal/{tpq,core,exec,topk,ir,stats,
// planner,rank,wal,xmltree} that the ladder calls is wrapped here, behind
// opaque types, and nothing else under bench/ imports them. A change that
// renames or removes one of these entry points breaks this file and only
// this file; bench/README.md lists them and says what such a change owes.
package layers

import (
	"bytes"
	"fmt"
	"time"

	"flexpath"
	"flexpath/internal/core"
	"flexpath/internal/exec"
	"flexpath/internal/ir"
	"flexpath/internal/planner"
	"flexpath/internal/rank"
	"flexpath/internal/stats"
	"flexpath/internal/topk"
	"flexpath/internal/tpq"
	"flexpath/internal/wal"
	"flexpath/internal/xmltree"
)

// Member is one document with its own full-text index, statistics,
// estimator, evaluator and planner, built from the document's tree exactly
// as flexpath.NewDocument builds its private ones. The ladder works on
// these, so what it times never shares a cache with the end-to-end runs.
type Member struct {
	tree *xmltree.Document
	ix   *ir.Index
	st   *stats.Stats
	est  *stats.Estimator
	ev   *exec.Evaluator
	pl   *planner.Planner
}

// NewMember indexes d's tree afresh.
func NewMember(d *flexpath.Document) *Member {
	return memberOf(d.Tree())
}

func memberOf(t *xmltree.Document) *Member {
	ix := ir.NewIndex(t)
	st := stats.Collect(t)
	est := stats.NewEstimator(st, ix)
	return &Member{tree: t, ix: ix, st: st, est: est, ev: exec.NewEvaluator(t, ix), pl: planner.New(est)}
}

// XMLOf serializes d back to XML (xmltree.Document.WriteXML): documents built
// by internal/xmark never existed as text, and the load and storage probes
// need the bytes a user would have loaded.
func XMLOf(d *flexpath.Document) ([]byte, error) {
	var b bytes.Buffer
	t := d.Tree()
	if err := t.WriteXML(&b, t.Root()); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// LoadSplit is flexpath.Load taken apart: the time to parse XML into a tree,
// to build the full-text index over it and to collect its statistics.
type LoadSplit struct {
	Parse, Index, Stats time.Duration
}

// SplitLoad parses and indexes one XML document, timing each stage.
func SplitLoad(xml []byte) (LoadSplit, error) {
	var s LoadSplit
	t0 := time.Now()
	tree, err := xmltree.Parse(bytes.NewReader(xml))
	if err != nil {
		return s, err
	}
	t1 := time.Now()
	ir.NewIndex(tree)
	t2 := time.Now()
	stats.Collect(tree)
	s.Parse, s.Index, s.Stats = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return s, nil
}

// Query, Template and Plan hide tpq.Query, core.Template and exec.Plan.
type (
	Query    struct{ q *tpq.Query }
	Template struct{ t *core.Template }
	Plan     struct{ p *exec.Plan }
)

// ParseQuery is tpq.Parse.
func ParseQuery(src string) (Query, error) {
	q, err := tpq.Parse(src)
	return Query{q}, err
}

// BuildTemplate is core.BuildChainH followed by core.NewTemplate under
// uniform weights and no type hierarchy: what a plan-template cache miss
// costs one member.
func (m *Member) BuildTemplate(q Query) (Template, error) {
	c, err := core.BuildChainH(m.tree, m.ix, m.st, rank.UniformWeights(), q.q, nil)
	if err != nil {
		return Template{}, err
	}
	return Template{core.NewTemplate(c)}, nil
}

// EvalFullText is ir.Index.Eval over every contains expression of q, or over
// fallback when q has none, so the layer is exercised on every corpus. It
// returns the number of matches so the work cannot be optimised away.
func (m *Member) EvalFullText(q Query, fallback string) (int, error) {
	n, seen := 0, false
	for _, node := range q.q.Nodes {
		for _, e := range node.Contains {
			n += m.ix.Eval(e).Len()
			seen = true
		}
	}
	if !seen {
		e, err := ir.ParseExpr(fallback)
		if err != nil {
			return 0, err
		}
		n = m.ix.Eval(e).Len()
	}
	return n, nil
}

// AdmittingLevel returns the relaxation level whose plan yields k answers:
// the level a Hybrid run settles on, restarts included. It leaves that level
// memoized in t, as a first search of the shape would.
func (m *Member) AdmittingLevel(t Template, k int) int {
	var met topk.Metrics
	topk.Hybrid(t.t.Chain, m.est, topk.Options{K: k, Scheme: rank.StructureFirst, Metrics: &met, Template: t.t})
	return met.RelaxationsEncoded
}

// PlanAt is core.Template.PlanAt: the scored join plan encoding the first j
// relaxation steps, built on first use.
func (t Template) PlanAt(j int) (Plan, error) {
	p, err := t.t.PlanAt(j)
	return Plan{p}, err
}

// Choose is planner.Planner.Choose; it returns the chosen algorithm.
func (m *Member) Choose(t Template, k int) flexpath.Algorithm {
	switch m.pl.Choose(t.t.Chain, t.t, k, rank.StructureFirst).Algo {
	case planner.DPO:
		return flexpath.DPO
	case planner.SSO:
		return flexpath.SSO
	}
	return flexpath.Hybrid
}

// PlanCounts are exec.Run's exact work counters.
type PlanCounts struct {
	Answers, TuplesGenerated, TuplesPruned int
}

// RunPlan is exec.Run in bucket mode (Hybrid's) with threshold pruning at k.
func RunPlan(p Plan, k int) PlanCounts {
	var ps exec.PipelineStats
	as := exec.Run(p.p, exec.Options{K: k, Scheme: rank.StructureFirst, Mode: exec.ModeBuckets, Stats: &ps})
	return PlanCounts{Answers: len(as), TuplesGenerated: ps.TuplesGenerated, TuplesPruned: ps.TuplesPruned}
}

// TopK runs topk.DPO, topk.SSO or topk.Hybrid with a warm template and
// returns the number of answers.
func (m *Member) TopK(algo flexpath.Algorithm, t Template, k int) (int, error) {
	opts := topk.Options{K: k, Scheme: rank.StructureFirst, Template: t.t}
	switch algo {
	case flexpath.DPO:
		return len(topk.DPO(m.ev, t.t.Chain, opts)), nil
	case flexpath.SSO:
		return len(topk.SSO(t.t.Chain, m.est, opts)), nil
	case flexpath.Hybrid:
		return len(topk.Hybrid(t.t.Chain, m.est, opts)), nil
	}
	return 0, fmt.Errorf("layers: no top-K entry point for algorithm %v", algo)
}

// SemiJoins runs the structural semijoin kernels over the tag lists of every
// edge of q — exec.SemiJoinHasChild and exec.SemiJoinChildOf for a
// parent-child edge, exec.SemiJoinHasDescendant for an ancestor-descendant
// one — and returns how many input nodes they consumed.
func (m *Member) SemiJoins(q Query) (inputNodes int) {
	for _, n := range q.q.Nodes {
		if n.Parent < 0 {
			continue
		}
		outer := m.tree.NodesWithTag(q.q.Nodes[n.Parent].Tag)
		inner := m.tree.NodesWithTag(n.Tag)
		if n.Axis == tpq.Child {
			exec.SemiJoinHasChild(m.tree, outer, inner)
			exec.SemiJoinChildOf(m.tree, inner, outer)
			inputNodes += 2 * (len(outer) + len(inner))
		} else {
			exec.SemiJoinHasDescendant(m.tree, outer, inner)
			inputNodes += len(outer) + len(inner)
		}
	}
	return inputNodes
}

// Log hides wal.Log.
type Log struct{ l *wal.Log }

// OpenLog is wal.Open on an empty directory with the given group-commit
// window.
func OpenLog(dir string, syncWindow time.Duration) (Log, error) {
	l, _, err := wal.Open(dir, wal.Options{SyncWindow: syncWindow}, func(wal.Record) error { return nil })
	return Log{l}, err
}

// Append is wal.Log.Append of an add record; WaitDurable is
// wal.Log.WaitDurable.
func (l Log) Append(name string, doc []byte) (lsn uint64, err error) {
	return l.l.Append(wal.OpAdd, name, doc)
}

func (l Log) WaitDurable(lsn uint64) error { return l.l.WaitDurable(lsn) }

// DiskBytes is the size of the live segments (wal.Log.Stats).
func (l Log) DiskBytes() int64 { return l.l.Stats().Bytes }

func (l Log) Close() error { return l.l.Close() }
