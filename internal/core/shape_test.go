package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"flexpath/internal/rank"
	"flexpath/internal/tpq"
)

// exactSteps is stepsOf with the float fields replaced by their bits, so
// a comparison is bit for bit.
type exactStep struct {
	refStep
	PenaltyBits, SSBits uint64
}

func exactSteps(c *Chain) []exactStep {
	var out []exactStep
	for _, s := range stepsOf(c) {
		e := exactStep{refStep: s, PenaltyBits: math.Float64bits(s.Penalty), SSBits: math.Float64bits(s.SS)}
		e.Penalty, e.SS = 0, 0
		out = append(out, e)
	}
	return out
}

// checkSharedChain builds q's chain over f through the shared shape s and
// through a fresh BuildChainH, and requires them equal bit for bit.
func checkSharedChain(t *testing.T, f *fixture, s *Shape, w rank.Weights, q *tpq.Query) {
	t.Helper()
	shared, err := s.Chain(f.doc, f.ix, f.st, w, nil)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	fresh, err := BuildChainH(f.doc, f.ix, f.st, w, q, nil)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if math.Float64bits(shared.Base) != math.Float64bits(fresh.Base) {
		t.Fatalf("%s: base %v, fresh %v", q, shared.Base, fresh.Base)
	}
	if got, want := exactSteps(shared), exactSteps(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: shared-shape chain\n%+v\nfresh chain\n%+v", q, got, want)
	}
}

// TestSharedShapeMatchesFreshChains: one Shape per query, built over
// XMark documents with different statistics, gives every document the
// chain a fresh BuildChainH gives it — dropped keys, descriptions,
// distinguished IDs, relaxed queries, step bits and the bits of every
// penalty and structural score — whether a document reuses another's
// skeleton or computes its own. The twelve-node shape orders its
// penalties differently per document, so the compute path runs; the
// rest mostly share one skeleton.
func TestSharedShapeMatchesFreshChains(t *testing.T) {
	fs := []*fixture{
		xmarkFixture(t, 200<<10, 3),
		xmarkFixture(t, 120<<10, 7),
		xmarkFixture(t, 300<<10, 11),
	}
	queries := 200
	if testing.Short() {
		queries = 40
	}
	r := rand.New(rand.NewSource(39))
	var qs []*tpq.Query
	for _, sh := range buildChainShapes {
		qs = append(qs, tpq.MustParse(sh.src))
	}
	for i := 0; i < queries; i++ {
		qs = append(qs, randomXMarkTPQ(r))
	}
	reused, computedMany := 0, 0
	for i, q := range qs {
		w := rank.UniformWeights()
		if i%3 == 1 {
			w = rank.Weights{Structural: 2, Contains: 1.5}
		}
		s, err := NewShape(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			checkSharedChain(t, f, s, w, q)
		}
		switch n := len(s.skeletons); {
		case n < len(fs):
			reused++
		case i == len(buildChainShapes)-1 && n != len(fs):
			t.Errorf("12-node shape: %d skeleton(s) over %d documents, want one per document", n, len(fs))
		}
		if len(s.skeletons) > 1 {
			computedMany++
		}
	}
	t.Logf("%d shapes over %d documents: %d reused a skeleton, %d computed several", len(qs), len(fs), reused, computedMany)
	if reused == 0 || computedMany == 0 {
		t.Fatalf("paths not all exercised: %d shapes reused a skeleton, %d computed several", reused, computedMany)
	}
}
