package flexpath_test

import (
	"flexpath/internal/core"
	"flexpath/internal/exec"
	"flexpath/internal/ir"
	"flexpath/internal/rank"
	"flexpath/internal/stats"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

// The benchmark (bench/, a module of its own that `go test ./...` here
// does not compile) reaches internal/tpq and internal/core through
// bench/layers/adapters.go. These assertions pin the entry points
// bench/README.md lists under "The frozen surface" for those two
// packages, with the types the adapters use them at, so renaming or
// re-typing one fails this package's build instead of the benchmark gate.
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
)
