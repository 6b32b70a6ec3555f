package flexpath_test

import (
	"io"
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

// The benchmark (bench/, a module of its own that `go test ./...` here
// does not compile) calls the root package from its runner and the
// internal packages through bench/layers/adapters.go. These assertions
// pin the entry points bench/README.md lists under "The frozen surface",
// with the types the benchmark uses them at, so renaming, re-typing or
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

	_ func(*xmltree.Document) *ir.Index              = ir.NewIndex
	_ func(*ir.Index, ir.Expr) *ir.Result            = (*ir.Index).Eval
	_ func(*ir.Result) int                           = (*ir.Result).Len
	_ func(string) (ir.Expr, error)                  = ir.ParseExpr
	_ func(*xmltree.Document) *stats.Stats           = stats.Collect
	_ func(*stats.Stats, *ir.Index) *stats.Estimator = stats.NewEstimator

	_ func(*stats.Estimator) *planner.Planner                                              = planner.New
	_ func(*planner.Planner, *core.Chain, *core.Template, int, rank.Scheme) planner.Choice = (*planner.Planner).Choose
	_                                                                                      = func(c planner.Choice) planner.Algo { return c.Algo }
	_                                                                                      = [...]planner.Algo{planner.DPO, planner.SSO}

	_ func() rank.Weights = rank.UniformWeights
	_ rank.Scheme         = rank.StructureFirst

	_ func(string, wal.Options, func(wal.Record) error) (*wal.Log, wal.Recovery, error) = wal.Open
	_                                                                                   = func(d time.Duration) wal.Options { return wal.Options{SyncWindow: d} }
	_ func(*wal.Log, wal.Op, string, []byte) (uint64, error)                            = (*wal.Log).Append
	_ func(*wal.Log, uint64) error                                                      = (*wal.Log).WaitDurable
	_ func(*wal.Log) wal.Stats                                                          = (*wal.Log).Stats
	_ func(*wal.Log) error                                                              = (*wal.Log).Close
	_ wal.Op                                                                            = wal.OpAdd

	_ func(io.Reader) (*xmltree.Document, error)               = xmltree.Parse
	_ func(*xmltree.Document, io.Writer, xmltree.NodeID) error = (*xmltree.Document).WriteXML
	_ func(*xmltree.Document) xmltree.NodeID                   = (*xmltree.Document).Root
	_ func(*xmltree.Document, string) []xmltree.NodeID         = (*xmltree.Document).NodesWithTag
)

// The root package's frozen surface (bench/README.md, "Root package").
var (
	_ func(*xmltree.Document) *flexpath.Document                                                   = flexpath.NewDocument
	_ func(io.Reader) (*flexpath.Document, error)                                                  = flexpath.Load
	_ func(string) (*flexpath.Document, error)                                                     = flexpath.LoadString
	_ func(string) (*flexpath.Query, error)                                                        = flexpath.ParseQuery
	_ func(string) *flexpath.Query                                                                 = flexpath.MustParseQuery
	_ func(string) (flexpath.Algorithm, error)                                                     = flexpath.ParseAlgorithm
	_                                                                                              = [...]flexpath.Algorithm{flexpath.DPO, flexpath.SSO, flexpath.Hybrid}
	_ func(string) (*flexpath.Document, error)                                                     = flexpath.LoadFXP3SnapshotFile
	_ func() *flexpath.Collection                                                                  = flexpath.NewCollection
	_ func(*flexpath.Document, *flexpath.Query, flexpath.SearchOptions) ([]flexpath.Answer, error) = (*flexpath.Document).Search
	_ func(*flexpath.Document) *xmltree.Document                                                   = (*flexpath.Document).Tree
	_ func(*flexpath.Document, string) error                                                       = (*flexpath.Document).SaveFXP3SnapshotFile
	_ func(*flexpath.Document) (flexpath.PlanCacheStats, bool)                                     = (*flexpath.Document).PlanCacheStats
	_ func(*flexpath.Document) (flexpath.CacheStats, bool)                                         = (*flexpath.Document).CacheStats

	_ func(*flexpath.Collection, string, *flexpath.Document) error                                             = (*flexpath.Collection).Add
	_ func(*flexpath.Collection, string, string) error                                                         = (*flexpath.Collection).AddSnapshotFile
	_ func(*flexpath.Collection, string, *flexpath.Document) error                                             = (*flexpath.Collection).Replace
	_ func(*flexpath.Collection, *flexpath.Query, flexpath.SearchOptions) ([]flexpath.CollectionAnswer, error) = (*flexpath.Collection).Search
	_ func(*flexpath.Collection, int)                                                                          = (*flexpath.Collection).SetCache
	_ func(*flexpath.Collection, int)                                                                          = (*flexpath.Collection).SetDocumentCaches
	_ func(*flexpath.Collection, int)                                                                          = (*flexpath.Collection).SetResidency
	_ func(*flexpath.Collection) []string                                                                      = (*flexpath.Collection).Names
	_ func(*flexpath.Collection, string) (*flexpath.Document, bool)                                            = (*flexpath.Collection).Document
	_ func(*flexpath.Collection) (flexpath.CacheStats, bool)                                                   = (*flexpath.Collection).CacheStats
	_ func(*flexpath.Collection) (flexpath.PlanCacheStats, bool)                                               = (*flexpath.Collection).PlanCacheStats
	_ func(*flexpath.Collection) flexpath.ResidencyStats                                                       = (*flexpath.Collection).ResidencyStats
	_ func(*flexpath.Collection) error                                                                         = (*flexpath.Collection).Close

	_ = func(k, workers int, a flexpath.Algorithm, m *flexpath.Metrics) flexpath.SearchOptions {
		return flexpath.SearchOptions{K: k, Algorithm: a, NoCache: true, Workers: workers, Metrics: m}
	}
	_ = func(m flexpath.Metrics) (int, int, string) { return m.RelaxationsEncoded, m.Restarts, m.Algorithm }
	_ = func(a flexpath.CollectionAnswer) (flexpath.Answer, string) { return a.Answer, a.DocName }
	_ = func(s flexpath.ResidencyStats) (int, uint64, uint64) { return s.Resident, s.Faults, s.Evictions }
)
