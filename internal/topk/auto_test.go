package topk

import (
	"testing"

	"flexpath/internal/planner"
	"flexpath/internal/rank"
)

// TestAutoMatchesChosenAlgorithm: Auto must return exactly what the
// algorithm it dispatched to would have returned.
func TestAutoMatchesChosenAlgorithm(t *testing.T) {
	fixtures := map[string]*fixture{
		"articles": newFixture(t, articlesXML),
		"xmark":    xmarkFixture(t, 96<<10, 5),
	}
	queries := map[string][]string{
		"articles": {srcQ1, `//article[./section/paragraph[.contains("xml")]]`},
		"xmark": {
			`//item[./description/parlist]`,
			`//item[./description/parlist and ./mailbox/mail/text]`,
		},
	}
	for name, f := range fixtures {
		for _, src := range queries[name] {
			c := f.chain(t, src)
			for _, scheme := range schemes() {
				for _, k := range []int{1, 5, 25} {
					// A fresh planner per run keeps the choice static: no
					// calibration drift between Auto and the replay below.
					pl := planner.New(f.est)
					got, choice := Auto(c, f.est, pl, Options{K: k, Scheme: scheme})
					var want []Result
					switch choice.Algo {
					case planner.DPO:
						want = DPO(f.ev, c, Options{K: k, Scheme: scheme})
					case planner.SSO:
						want = SSO(c, f.est, Options{K: k, Scheme: scheme})
					default:
						want = Hybrid(c, f.est, Options{K: k, Scheme: scheme})
					}
					if len(got) != len(want) {
						t.Fatalf("%s %s k=%d %v [%v]: Auto %d results, %v %d",
							name, src, k, scheme, choice.Algo, len(got), choice.Algo, len(want))
					}
					for i := range got {
						if got[i].Node != want[i].Node || got[i].Score != want[i].Score {
							t.Errorf("%s %s k=%d %v [%v]: result %d differs: %+v vs %+v",
								name, src, k, scheme, choice.Algo, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestAutoObservesRuns: Auto must feed completed runs back into the
// planner's calibrator.
func TestAutoObservesRuns(t *testing.T) {
	f := newFixture(t, articlesXML)
	c := f.chain(t, srcQ1)
	pl := planner.New(f.est)
	for i := 0; i < 3; i++ {
		Auto(c, f.est, pl, Options{K: 3, Scheme: rank.StructureFirst})
	}
	s := pl.Snapshot()
	if s.Observations != 3 {
		t.Errorf("observations = %d, want 3", s.Observations)
	}
	total := uint64(0)
	for _, n := range s.Choices {
		total += n
	}
	if total != 3 {
		t.Errorf("choices = %v, want 3 total", s.Choices)
	}
}

// TestDPOVariantCountersAgree: DPO walks the relaxation chain level by
// level and stops at the admitting level, so it never restarts and
// evaluates exactly one query per level up to the deepest it reached. A
// past regression counted a level as evaluated before its plan
// construction could fail.
func TestDPOVariantCountersAgree(t *testing.T) {
	fixtures := map[string]*fixture{
		"articles": newFixture(t, articlesXML),
		"xmark":    xmarkFixture(t, 96<<10, 5),
	}
	queries := map[string][]string{
		"articles": {srcQ1, `//article[./section/paragraph[.contains("xml")]]`},
		"xmark": {
			`//item[./description/parlist]`,
			`//item[./description/parlist and ./mailbox/mail/text]`,
		},
	}
	for name, f := range fixtures {
		for _, src := range queries[name] {
			c := f.chain(t, src)
			for _, scheme := range schemes() {
				for _, k := range []int{1, 5, 40} {
					var m Metrics
					DPO(nil, c, Options{K: k, Scheme: scheme, Metrics: &m})
					if m.QueriesEvaluated != m.RelaxationsEncoded+1 {
						t.Errorf("%s %s k=%d %v: QueriesEvaluated %d, deepest level %d",
							name, src, k, scheme, m.QueriesEvaluated, m.RelaxationsEncoded)
					}
					if m.Restarts != 0 {
						t.Errorf("%s %s k=%d %v: DPO reported %d restarts", name, src, k, scheme, m.Restarts)
					}
				}
			}
		}
	}
}

// TestAutoRestartsReachCalibration: with no Metrics in the options, the
// restarts of the algorithm Auto dispatched to must still reach the
// planner's restart-rate EWMA. The chain is one whose Hybrid run
// undershoots its first estimate at K = 1.
func TestAutoRestartsReachCalibration(t *testing.T) {
	f := xmarkFixture(t, 64<<10, 2)
	c := f.chain(t, `//item[./description/parlist and ./mailbox/mail/text]`)
	opts := Options{K: 1, Scheme: rank.StructureFirst}
	pl := planner.New(f.est)
	_, choice := Auto(c, f.est, pl, opts)
	var m Metrics
	switch choice.Algo {
	case planner.SSO:
		SSO(c, f.est, Options{K: opts.K, Scheme: opts.Scheme, Metrics: &m})
	case planner.Hybrid:
		Hybrid(c, f.est, Options{K: opts.K, Scheme: opts.Scheme, Metrics: &m})
	default:
		t.Fatalf("setup: planner chose %v, which never restarts", choice.Algo)
	}
	if m.Restarts == 0 {
		t.Fatalf("setup: %v did not restart on this chain", choice.Algo)
	}
	if s := pl.Snapshot(); s.RestartRate <= 0 {
		t.Errorf("restart rate = %v after a run with %d restarts, want > 0", s.RestartRate, m.Restarts)
	}
}
