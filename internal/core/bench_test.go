package core

import (
	"fmt"
	"testing"

	"flexpath/internal/exec"
)

// exactPlanQueries are the exact queries ROADMAP item 5 timed the plan
// evaluator on against the two-pass semijoin evaluator: a selective and a
// common full-text filter under one structural edge, and the paper's XQ2
// and XQ3.
var exactPlanQueries = []struct{ name, src string }{
	{"gold-silver", `//item[./description[.contains("gold silver")]]`},
	{"xml", `//item[./description[.contains("xml")]]`},
	{"XQ2", `//item[./description/parlist and ./mailbox/mail/text]`},
	{"XQ3", `//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]`},
}

// BenchmarkExactPlanRun times one exact evaluation per op on a 4 MB
// XMark document (seed 42): two-pass is the test oracle's
// Evaluator.Evaluate, plan is what DPO runs per relaxation level, a fresh
// ExactPlanAt(0) (so leaf evaluation and the semijoin reduction are paid
// every op) and an exhaustive exec.Run. Both must find the same answers.
func BenchmarkExactPlanRun(b *testing.B) {
	f := xmarkFixture(b, 4<<20, 42)
	for _, eq := range exactPlanQueries {
		c := f.chain(b, eq.src)
		want := len(f.ev.Evaluate(c.Original))
		b.Run(eq.name+"/two-pass", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := len(f.ev.Evaluate(c.Original)); got != want {
					b.Fatalf("%d answers, want %d", got, want)
				}
			}
		})
		b.Run(eq.name+"/plan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan, err := c.ExactPlanAt(0)
				if err != nil {
					b.Fatal(err)
				}
				if got := len(exec.Run(plan, exec.Options{})); got != want {
					b.Fatalf("%d answers, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkPlanRunTopK times one pruned run per op on a 4 MB XMark
// document (seed 42). The XQ2 and "xml" arms run the fully relaxed plan,
// PlanAt(chain.Len()), in Hybrid's bucket organization at K = 10 and 700.
// The XQ3 arm runs the plan SSO chooses at K = 500 (the shortest prefix
// the estimator expects to give 500 answers) in both organizations and
// reports the tuples each run builds. The exact arms run the exact plans
// of XQ1 and XQ2, ExactPlanAt(0), at K = 10, as DPO runs a level that
// would be its last should it fill K: every answer ties, so the root scan
// stops at its tenth. The article arm runs the fully
// relaxed plan of serve_mixed's costliest query shape on one generated
// 128 KB article at K = 10 in both organizations. Every arm reports the
// tuples and the candidates scored per op. Each plan is built once, so
// its memoized candidate lists are shared across ops as under the
// plan-template cache; each op joins, aggregates and ranks on a reset
// arena.
func BenchmarkPlanRunTopK(b *testing.B) {
	f := xmarkFixture(b, 4<<20, 42)
	run := func(name string, plan *exec.Plan, k int, mode exec.Mode) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			arena := exec.GetArena()
			defer exec.PutArena(arena)
			var st exec.PipelineStats
			for i := 0; i < b.N; i++ {
				arena.Reset()
				got := exec.Run(plan, exec.Options{K: k, Mode: mode, Arena: arena, Stats: &st})
				if len(got) == 0 || len(got) > k {
					b.Fatalf("%d answers at K = %d", len(got), k)
				}
			}
			b.ReportMetric(float64(st.TuplesGenerated)/float64(b.N), "tuples/op")
			b.ReportMetric(float64(st.Scored)/float64(b.N), "scored/op")
		})
	}
	for _, eq := range []struct{ name, src string }{exactPlanQueries[2], exactPlanQueries[1]} {
		c := f.chain(b, eq.src)
		plan, err := c.PlanAt(c.Len())
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{10, 700} {
			run(fmt.Sprintf("%s/k=%d", eq.name, k), plan, k, exec.ModeBuckets)
		}
	}
	for _, eq := range []struct{ name, src string }{{"XQ1", `//item[./description/parlist]`}, exactPlanQueries[2]} {
		plan, err := f.chain(b, eq.src).ExactPlanAt(0)
		if err != nil {
			b.Fatal(err)
		}
		run(eq.name+"/exact/k=10", plan, 10, exec.ModeBuckets)
	}
	c := f.chain(b, exactPlanQueries[3].src)
	j := 0
	for j < c.Len() && f.est.Estimate(c.QueryAt(j), c.FullText) < 500 {
		j++
	}
	plan, err := c.PlanAt(j)
	if err != nil {
		b.Fatal(err)
	}
	run("XQ3/k=500/sorted", plan, 500, exec.ModeSorted)
	run("XQ3/k=500/buckets", plan, 500, exec.ModeBuckets)
	c = articleFixture(b, 1, 128<<10).chain(b, articleQuery)
	if plan, err = c.PlanAt(c.Len()); err != nil {
		b.Fatal(err)
	}
	run("article/k=10/sorted", plan, 10, exec.ModeSorted)
	run("article/k=10/buckets", plan, 10, exec.ModeBuckets)
}
