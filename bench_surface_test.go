package flexpath_test

import (
	"flexpath/internal/core"
	"flexpath/internal/exec"
	"flexpath/internal/ir"
	"flexpath/internal/rank"
	"flexpath/internal/stats"
	"flexpath/internal/topk"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

// The benchmark (bench/, a module of its own that `go test ./...` here
// does not compile) reaches internal/{tpq,core,exec,topk} through
// bench/layers/adapters.go. These assertions pin the entry points
// bench/README.md lists under "The frozen surface" for those packages,
// with the types the adapters use them at, so renaming, re-typing or
// deleting one fails this package's build instead of the benchmark gate.
// Changing one needs a paired benchmark issue; see bench/README.md.
var (
	_ func(string) (*tpq.Query, error) = tpq.Parse
	_                                  = func(q *tpq.Query) []tpq.Node { return q.Nodes }
	_                                  = func(n tpq.Node) (string, int, tpq.Axis, []ir.Expr) { return n.Tag, n.Parent, n.Axis, n.Contains }
	_ tpq.Axis                         = tpq.Child

	_ func(*xmltree.Document, *ir.Index, *stats.Stats, rank.Weights, *tpq.Query, *tpq.Hierarchy) (*core.Chain, error) = core.BuildChainH
	_ func(*core.Chain) *core.Template                                                                                = core.NewTemplate
	_ func(*core.Template, int) (*exec.Plan, error)                                                                   = (*core.Template).PlanAt
	_                                                                                                                 = func(t *core.Template) *core.Chain { return t.Chain }

	_ func(*xmltree.Document, *ir.Index) *exec.Evaluator = exec.NewEvaluator
	_ func(*exec.Plan, exec.Options) []exec.Answer       = exec.Run
	_                                                    = func(k int, s rank.Scheme, m exec.Mode, ps *exec.PipelineStats) exec.Options {
		return exec.Options{K: k, Scheme: s, Mode: m, Stats: ps}
	}
	_ exec.Mode                                                                    = exec.ModeBuckets
	_                                                                              = func(ps exec.PipelineStats) (int, int) { return ps.TuplesGenerated, ps.TuplesPruned }
	_ func(*xmltree.Document, []xmltree.NodeID, []xmltree.NodeID) []xmltree.NodeID = exec.SemiJoinHasChild
	_ func(*xmltree.Document, []xmltree.NodeID, []xmltree.NodeID) []xmltree.NodeID = exec.SemiJoinChildOf
	_ func(*xmltree.Document, []xmltree.NodeID, []xmltree.NodeID) []xmltree.NodeID = exec.SemiJoinHasDescendant

	_ func(*exec.Evaluator, *core.Chain, topk.Options) []topk.Result  = topk.DPO
	_ func(*core.Chain, *stats.Estimator, topk.Options) []topk.Result = topk.SSO
	_ func(*core.Chain, *stats.Estimator, topk.Options) []topk.Result = topk.Hybrid
	_                                                                 = func(k int, s rank.Scheme, t *core.Template, m *topk.Metrics) topk.Options {
		return topk.Options{K: k, Scheme: s, Template: t, Metrics: m}
	}
	_ = func(m topk.Metrics) int { return m.RelaxationsEncoded }
)
