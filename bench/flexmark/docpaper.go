package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"flexpath"
	"flexpath/bench/layers"
	"flexpath/internal/xmark"
)

// docPaper is the paper's own experiment: XQ1-XQ3 x {DPO, SSO, Hybrid} x
// four values of K over one 16 MB XMark document, result cache bypassed,
// plan templates warm, one goroutine. Nearly all of its time is join kernels
// and top-K bookkeeping; it touches no parser, no chain builder, no cache, no
// collection, no storage and no HTTP, so a gain in any of those must leave it
// unmoved.
//
// Algorithms are pinned because Auto's planner calibrates itself from
// observed run times, which makes its choice (and so the latency) depend on
// timing noise.
//
// The K values sit well clear of the relaxation-level boundaries of a 16 MB
// document (over seeds, XQ2 has 185 +- 13 exact answers, about 545 after one
// relaxation and 1 850 after three; XQ3 has 93 +- 13, about 270 after one and
// 930 after seven), so every seed walks the same number of levels: K=50 costs
// no query a relaxation, K=140 costs XQ3 one, K=700 costs XQ2 three and XQ3
// seven. A K within a few percent of a boundary would make the work, not just
// the time, differ from seed to seed.
type docPaper struct {
	cfg config
	sb  *sandbox

	doc     *flexpath.Document
	queries []*flexpath.Query
	combos  []combo
	round   []int             // combo index per op of one round, before shuffling
	ref     map[[2]int]uint64 // (query, K) -> digest of the reference ranking
}

type combo struct {
	q    int
	k    int
	algo flexpath.Algorithm
}

var (
	paperQueries = []string{xq1, xq2, xq3}
	paperKs      = []int{10, 50, 140, 700}
	paperAlgos   = []flexpath.Algorithm{flexpath.DPO, flexpath.SSO, flexpath.Hybrid}
)

// docPaperBytes is the document size: the paper's mid-range point, large
// enough that a search is milliseconds of kernel work.
const docPaperBytes = 16 << 20

// A round issues every combination comboRepeats times, except two, both DPO
// at the largest K, where it evaluates the relaxations one full pass each.
//
// XQ2 (three passes, about 12 ms against 2-3 ms for the 27 combinations that
// need no relaxation) is the heavy class: heavyRepeats of a round's 75 ops,
// so the 95th percentile falls in the middle of it. It was chosen because its
// cost hardly depends on the seed (2% from document to document).
//
// XQ3 (seven passes, about 80 ms) is issued once: the paper's most telling
// point, but its cost follows the join orders the document's statistics
// suggest and differs by 8% from seed to seed; issued as often as the rest
// it would be 40% of the run's time, and the run's throughput would be its.
const (
	comboRepeats = 2
	heavyRepeats = 6
)

var errWrongAnswer = errors.New("answer differs from reference")

func (w *docPaper) setup() error {
	tree, err := xmark.Build(xmark.Config{
		TargetBytes: int64(float64(docPaperBytes) * w.cfg.scale),
		Seed:        memberSeed(w.cfg.seed, 0),
	})
	if err != nil {
		return err
	}
	w.doc = flexpath.NewDocument(tree)
	w.queries, w.combos, w.round = nil, nil, nil
	for _, src := range paperQueries {
		q, err := flexpath.ParseQuery(src)
		if err != nil {
			return err
		}
		w.queries = append(w.queries, q)
	}
	for qi := range paperQueries {
		for ki, k := range paperKs {
			// Answer counts grow with the document, so a scaled-down
			// document gets K scaled down with it.
			k = scaled(k, w.cfg.scale, 2+ki)
			for _, a := range paperAlgos {
				w.combos = append(w.combos, combo{qi, k, a})
				n := comboRepeats
				if ki == len(paperKs)-1 && a == flexpath.DPO {
					switch qi {
					case 1:
						n = heavyRepeats
					case 2:
						n = 1
					}
				}
				for ; n > 0; n-- {
					w.round = append(w.round, len(w.combos)-1)
				}
			}
		}
	}
	// The warm-up round builds every plan template and fixes the reference:
	// DPO's ranking, which evaluates the relaxations one by one in penalty
	// order and so is the definition the other two must reproduce.
	w.ref = map[[2]int]uint64{}
	for _, ci := range w.round {
		c := w.combos[ci]
		as, err := w.doc.Search(w.queries[c.q], flexpath.SearchOptions{K: c.k, Algorithm: c.algo, NoCache: true})
		if err != nil {
			return err
		}
		if c.algo == flexpath.DPO {
			w.ref[[2]int{c.q, c.k}] = digestDocAnswers(as)
		}
	}
	return nil
}

// roundOrder is the op order of round r: a permutation that depends only on
// the seed and r.
func (w *docPaper) roundOrder(r int) []int {
	order := append([]int(nil), w.round...)
	stream(w.cfg.seed, fmt.Sprintf("doc_paper/round/%d", r)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	return order
}

func (w *docPaper) measure(d time.Duration, rec *recorder, tr *layers.Trace) {
	// Every measured phase starts again from round 0, so a traced phase
	// replays the ops of the untraced one.
	r := 0
	measureRounds(d, rec, func() {
		for _, ci := range w.roundOrder(r) {
			c := w.combos[ci]
			start := time.Now()
			as, err := w.doc.Search(w.queries[c.q], flexpath.SearchOptions{K: c.k, Algorithm: c.algo, NoCache: true})
			end := time.Now()
			dg := digestDocAnswers(as)
			if err == nil && w.cfg.check && dg != w.ref[[2]int{c.q, c.k}] {
				err = errWrongAnswer
			}
			rec.search(ci, end.Sub(start), dg, err)
			if tr != nil {
				tr.Add(len(rec.searches)-1, layers.LayerOp, -1, start, end)
			}
		}
		r++
	})
}

func (w *docPaper) pid() int { return os.Getpid() }

// verify has nothing left to do: every op was compared with the reference
// ranking when it completed.
func (w *docPaper) verify(*recorder) error { return nil }

// shapeCheck reports (it does not gate) the paper's ordering claim on its
// heaviest point: total time Hybrid <= SSO <= DPO on XQ3 at the largest K.
func (w *docPaper) shapeCheck(rec *recorder) string {
	var sum [3]time.Duration
	var n [3]int
	for _, s := range rec.searches {
		c := w.combos[s.class]
		if s.failed || c.q != 2 || c.k != w.combos[len(w.combos)-1].k {
			continue
		}
		for i, a := range paperAlgos {
			if c.algo == a {
				sum[i] += s.d
				n[i]++
			}
		}
	}
	mean := func(i int) float64 {
		if n[i] == 0 {
			return 0
		}
		return float64(sum[i]) / 1e6 / float64(n[i])
	}
	dpo, sso, hyb := mean(0), mean(1), mean(2)
	return fmt.Sprintf("XQ3 K=%d mean ms: Hybrid %.3f <= SSO %.3f <= DPO %.3f: %v",
		w.combos[len(w.combos)-1].k, hyb, sso, dpo, hyb <= sso && sso <= dpo)
}

func (w *docPaper) counters() (layerCounters, error) {
	var lc layerCounters
	lc.plan, _ = w.doc.PlanCacheStats() // zero when disabled
	lc.cache, _ = w.doc.CacheStats()
	return lc, nil
}

func (w *docPaper) ladder() ([]layers.NamedDoc, []layers.Op, error) {
	var ops []layers.Op
	for _, c := range w.combos {
		ops = append(ops, layers.Op{Query: paperQueries[c.q], K: c.k, Algo: c.algo})
	}
	return []layers.NamedDoc{{Name: "auction", Doc: w.doc}}, ops, nil
}

func (w *docPaper) close() { w.doc = nil }
