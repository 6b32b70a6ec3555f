// Package rank implements FleXPath's ranking machinery (§4 of the paper):
// predicate weights, the penalties incurred by dropping predicates during
// relaxation, per-answer structural and keyword scores, and the three
// ranking schemes (structure first, keyword first, combined).
//
// Scores are computed from the multiset of predicate weights/penalties an
// answer satisfies, never from the order in which relaxations were
// applied, so every scheme here is order invariant by the construction of
// Theorem 3 and satisfies the Relevance Scoring property (structural
// scores never increase along a relaxation chain, because each additional
// dropped predicate subtracts a non-negative penalty).
package rank

import (
	"fmt"

	"flexpath/internal/ir"
	"flexpath/internal/stats"
	"flexpath/internal/tpq"
)

// Scheme selects how structural and keyword scores combine into a total
// order (§4.3).
type Scheme int

const (
	// StructureFirst orders answers by (ss, ks) lexicographically.
	StructureFirst Scheme = iota
	// KeywordFirst orders answers by (ks, ss) lexicographically.
	KeywordFirst
	// Combined orders answers by ss + ks.
	Combined
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case StructureFirst:
		return "structure-first"
	case KeywordFirst:
		return "keyword-first"
	default:
		return "combined"
	}
}

// ParseScheme parses a scheme name as printed by String.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "structure-first", "structure", "ss":
		return StructureFirst, nil
	case "keyword-first", "keyword", "ks":
		return KeywordFirst, nil
	case "combined", "sum":
		return Combined, nil
	}
	return 0, fmt.Errorf("rank: unknown scheme %q", s)
}

// Score is an answer's pair of structural score (ss) and keyword score
// (ks).
type Score struct {
	SS float64
	KS float64
}

// Compare orders two scores under a scheme. It returns >0 when s ranks
// strictly above o, <0 when below, 0 on ties.
func (s Score) Compare(o Score, scheme Scheme) int {
	switch scheme {
	case StructureFirst:
		if c := cmpFloat(s.SS, o.SS); c != 0 {
			return c
		}
		return cmpFloat(s.KS, o.KS)
	case KeywordFirst:
		if c := cmpFloat(s.KS, o.KS); c != 0 {
			return c
		}
		return cmpFloat(s.SS, o.SS)
	default:
		return cmpFloat(s.SS+s.KS, o.SS+o.KS)
	}
}

// Total returns the scheme's scalar projection of the score, used for
// threshold pruning. For the lexicographic schemes this is the primary
// component; for Combined it is the sum.
func (s Score) Total(scheme Scheme) float64 {
	switch scheme {
	case StructureFirst:
		return s.SS
	case KeywordFirst:
		return s.KS
	default:
		return s.SS + s.KS
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a > b:
		return 1
	case a < b:
		return -1
	default:
		return 0
	}
}

// Weights assigns a weight to each predicate of a query's closure
// (§4.3.1). The paper fixes the contains weight at 1 and lets structural
// weights be user-specified or uniform; PerPred overrides by canonical
// predicate key.
type Weights struct {
	Structural float64
	Contains   float64
	PerPred    map[string]float64
}

// UniformWeights assigns unit weight to every predicate, the assignment
// used throughout the paper's examples and experiments.
func UniformWeights() Weights {
	return Weights{Structural: 1, Contains: 1}
}

// Penalizer computes the penalty π(p) of dropping each predicate of a
// query's closure, using document statistics (§4.3.1). A penalty measures
// the context an answer loses by not satisfying the predicate: the higher
// the fraction of data already satisfying the stronger form, the closer
// the penalty is to the predicate's full weight. Predicates are named by
// their index in the query's universe, which also supplies the variables'
// tags and query parents the formulas need.
type Penalizer struct {
	st *stats.Stats
	ft []*ir.Result
	w  Weights
	u  *tpq.Universe
}

// NewPenalizer builds a Penalizer for the query u was built from. ft
// holds the evaluated expression of each of u's expression classes,
// indexed by class: the #contains statistics are read from it.
func NewPenalizer(st *stats.Stats, ft []*ir.Result, w Weights, u *tpq.Universe) *Penalizer {
	return &Penalizer{st: st, ft: ft, w: w, u: u}
}

// weight returns the weight of universe predicate i: its PerPred
// override, else the Contains or Structural weight. The key is formatted
// only once per universe, and looked up only when overrides exist.
func (p *Penalizer) weight(i int) float64 {
	if len(p.w.PerPred) > 0 {
		if v, ok := p.w.PerPred[p.u.Key(i)]; ok {
			return v
		}
	}
	if p.u.Pred(i).Kind == tpq.PredContains {
		return p.w.Contains
	}
	return p.w.Structural
}

// Penalty returns π(p) for dropping universe predicate i:
//
//	π(pc(i,j))       = #pc(ti,tj) / #ad(ti,tj) · w(p)
//	π(ad(i,j))       = #ad(ti,tj) / (#(ti) · #(tj)) · w(p)
//	π(contains(i,e)) = #contains(ti,e) / #contains(tl,e) · w(p),
//	                   l the query parent of i
//
// Ratios with zero denominators degrade to the full weight (dropping a
// predicate that the data cannot weaken loses the whole context).
func (p *Penalizer) Penalty(i int) float64 {
	w := p.weight(i)
	pred := p.u.Pred(i)
	switch pred.Kind {
	case tpq.PredPC:
		ti, tj := p.u.VarTag(p.u.X(i)), p.u.VarTag(p.u.Y(i))
		num, den := p.st.PC(ti, tj), p.st.AD(ti, tj)
		return ratio(num, den) * w
	case tpq.PredAD:
		ti, tj := p.u.VarTag(p.u.X(i)), p.u.VarTag(p.u.Y(i))
		num := p.st.AD(ti, tj)
		den := p.st.Count(ti) * p.st.Count(tj)
		return ratio(num, den) * w
	case tpq.PredContains:
		x := p.u.X(i)
		parent := p.u.VarParent(x)
		if parent == -1 {
			// The root's contains predicate is never dropped; a defensive
			// full-weight penalty keeps scores monotone if it ever is.
			return w
		}
		res := p.ft[p.u.Class(i)]
		num := res.CountSatisfyingWithTag(p.u.VarTag(x))
		den := res.CountSatisfyingWithTag(p.u.VarTag(parent))
		return ratio(num, den) * w
	default:
		return w
	}
}

func ratio(num, den int) float64 {
	if den <= 0 || num > den {
		return 1
	}
	return float64(num) / float64(den)
}

// BaseScore returns the structural score of an exact answer to the
// original query: the sum of the weights of the structural predicates
// present in the query (its tree edges), per §4.3.2, added in canonical
// key order.
func (p *Penalizer) BaseScore() float64 {
	total := 0.0
	logical := p.u.Logical()
	for i := logical.Next(0); i >= 0; i = logical.Next(i + 1) {
		if k := p.u.Pred(i).Kind; k == tpq.PredPC || k == tpq.PredAD {
			total += p.weight(i)
		}
	}
	return total
}

// Weights returns the weight assignment in use.
func (p *Penalizer) Weights() Weights { return p.w }
