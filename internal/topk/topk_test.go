package topk

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flexpath/internal/core"
	"flexpath/internal/exec"
	"flexpath/internal/ir"
	"flexpath/internal/rank"
	"flexpath/internal/stats"
	"flexpath/internal/tpq"
	"flexpath/internal/xmark"
	"flexpath/internal/xmltree"
)

const articlesXML = `
<collection>
  <article><title>streaming xml</title>
    <section><algorithm>merge</algorithm><paragraph>xml streaming passes</paragraph></section>
  </article>
  <article><title>layouts</title>
    <section><title>xml streaming storage</title><algorithm>split</algorithm><paragraph>pages</paragraph></section>
  </article>
  <article><title>joins</title>
    <section><paragraph>xml streaming joins</paragraph></section>
    <appendix><algorithm>twig</algorithm></appendix>
  </article>
  <article><title>other</title>
    <section><paragraph>nothing relevant</paragraph></section>
  </article>
</collection>`

const srcQ1 = `//article[./section[./algorithm and ./paragraph[.contains("XML" and "streaming")]]]`

type fixture struct {
	doc *xmltree.Document
	ix  *ir.Index
	st  *stats.Stats
	ev  *exec.Evaluator
	est *stats.Estimator
}

func newFixture(t testing.TB, xml string) *fixture {
	t.Helper()
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return fixtureFor(doc)
}

func fixtureFor(doc *xmltree.Document) *fixture {
	ix := ir.NewIndex(doc)
	st := stats.Collect(doc)
	return &fixture{doc: doc, ix: ix, st: st,
		ev: exec.NewEvaluator(doc, ix), est: stats.NewEstimator(st, ix)}
}

func xmarkFixture(t testing.TB, bytes, seed int64) *fixture {
	t.Helper()
	doc, err := xmark.Build(xmark.Config{TargetBytes: bytes, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return fixtureFor(doc)
}

func (f *fixture) chain(t testing.TB, src string) *core.Chain {
	t.Helper()
	c, err := core.BuildChain(f.doc, f.ix, f.st, rank.UniformWeights(), tpq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func schemes() []rank.Scheme {
	return []rank.Scheme{rank.StructureFirst, rank.KeywordFirst, rank.Combined}
}

// TestSSOHybridAgree: SSO and Hybrid must return identical results (same
// nodes, same scores, same order) — they run the same plan and pruning
// and differ only in intermediate-result organization.
func TestSSOHybridAgree(t *testing.T) {
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
					a := SSO(c, f.est, Options{K: k, Scheme: scheme})
					b := Hybrid(c, f.est, Options{K: k, Scheme: scheme})
					if len(a) != len(b) {
						t.Fatalf("%s %s k=%d %v: SSO %d results, Hybrid %d",
							name, src, k, scheme, len(a), len(b))
					}
					for i := range a {
						if a[i].Node != b[i].Node || a[i].Score != b[i].Score {
							t.Errorf("%s %s k=%d %v: result %d differs: %+v vs %+v",
								name, src, k, scheme, i, a[i], b[i])
						}
					}
				}
			}
		}
	}
}

// pruneKs are the K values the prefix checks run, from one answer to more
// than the fixtures have.
var pruneKs = []int{1, 3, 10, 50, 700}

// prunedIsPrefix checks that a pruned run of plan with K = k, in both
// organizations, returns exactly the first min(k, N) answers of the
// exhaustive run, bit for bit: nodes and the bits of both score
// components.
func prunedIsPrefix(plan *exec.Plan, scheme rank.Scheme, k int) error {
	full := exec.Run(plan, exec.Options{Scheme: scheme})
	for _, mode := range []exec.Mode{exec.ModeSorted, exec.ModeBuckets} {
		pruned := exec.Run(plan, exec.Options{K: k, Scheme: scheme, Mode: mode})
		if want := min(k, len(full)); len(pruned) != want {
			return fmt.Errorf("%v mode %d k=%d: pruned run returned %d answers, want %d",
				scheme, mode, k, len(pruned), want)
		}
		for i, a := range pruned {
			f := full[i]
			if a.Node != f.Node ||
				math.Float64bits(a.Score.SS) != math.Float64bits(f.Score.SS) ||
				math.Float64bits(a.Score.KS) != math.Float64bits(f.Score.KS) {
				return fmt.Errorf("%v mode %d k=%d: rank %d is %d %+v, exhaustive %d %+v",
					scheme, mode, k, i, a.Node, a.Score, f.Node, f.Score)
			}
		}
	}
	return nil
}

// TestPruningCorrect: at every relaxation level, in both organizations,
// a pruned run's answers are exactly the top K of an exhaustive run of the
// same plan.
func TestPruningCorrect(t *testing.T) {
	f := xmarkFixture(t, 64<<10, 9)
	for _, src := range []string{
		`//item[./description/parlist]`,
		`//item[./description/parlist and ./mailbox/mail/text]`,
	} {
		c := f.chain(t, src)
		for j := 0; j <= c.Len(); j++ {
			plan, err := c.PlanAt(j)
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range schemes() {
				for _, k := range pruneKs {
					if err := prunedIsPrefix(plan, scheme, k); err != nil {
						t.Errorf("%s level %d: %v", src, j, err)
					}
				}
			}
		}
	}
}

// TestResultsHoldExactlyK: every algorithm returns a slice of at most K
// results with no spare capacity, so a cached part pins only its K
// answers, not every answer a run found.
func TestResultsHoldExactlyK(t *testing.T) {
	f := xmarkFixture(t, 512<<10, 3)
	c := f.chain(t, `//item[./description/parlist and ./mailbox/mail/text]`)
	full, err := c.PlanAt(c.Len())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(exec.Run(full, exec.Options{})); n < 200 {
		t.Fatalf("fixture has %d answers, want hundreds", n)
	}
	algos := map[string]func(Options) []Result{
		"DPO":    func(o Options) []Result { return DPO(nil, c, o) },
		"SSO":    func(o Options) []Result { return SSO(c, f.est, o) },
		"Hybrid": func(o Options) []Result { return Hybrid(c, f.est, o) },
	}
	for name, run := range algos {
		for _, scheme := range schemes() {
			for _, k := range []int{1, 10, 50} {
				rs := run(Options{K: k, Scheme: scheme})
				if len(rs) != k || cap(rs) != len(rs) {
					t.Errorf("%s %v k=%d: len %d cap %d, want both %d",
						name, scheme, k, len(rs), cap(rs), k)
				}
			}
		}
	}
}

// TestDPOLevels: every DPO result's relaxation level is the minimal chain
// level admitting that node.
func TestDPOLevels(t *testing.T) {
	f := newFixture(t, articlesXML)
	c := f.chain(t, srcQ1)
	// Only three articles contain both keywords anywhere, so the whole
	// relaxation space yields exactly three answers.
	results := DPO(f.ev, c, Options{K: 3, Scheme: rank.StructureFirst})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		min := -1
		for j := 0; j <= c.Len(); j++ {
			for _, n := range f.ev.Evaluate(c.QueryAt(j)) {
				if n == r.Node {
					min = j
					break
				}
			}
			if min >= 0 {
				break
			}
		}
		if min != r.Relaxations {
			t.Errorf("node %d: reported level %d, minimal admitting level %d", r.Node, r.Relaxations, min)
		}
		if r.Score.SS != c.SSAt(r.Relaxations) {
			t.Errorf("node %d: ss %f != uniform level score %f", r.Node, r.Score.SS, c.SSAt(r.Relaxations))
		}
	}
	// Structure-first: results ordered by non-increasing ss.
	for i := 1; i < len(results); i++ {
		if results[i].Score.SS > results[i-1].Score.SS+1e-9 {
			t.Errorf("results not ordered by ss: %f after %f", results[i].Score.SS, results[i-1].Score.SS)
		}
	}
}

// TestExactAnswersFirst: with K equal to the number of exact matches, all
// algorithms return exactly the exact matches under structure-first.
func TestExactAnswersFirst(t *testing.T) {
	f := newFixture(t, articlesXML)
	c := f.chain(t, srcQ1)
	exact := f.ev.Evaluate(c.Original)
	if len(exact) != 1 {
		t.Fatalf("setup: %d exact answers, want 1", len(exact))
	}
	run := func(name string, results []Result) {
		if len(results) != 1 {
			t.Fatalf("%s: %d results", name, len(results))
		}
		if results[0].Node != exact[0] {
			t.Errorf("%s: top answer %d, want %d", name, results[0].Node, exact[0])
		}
		if results[0].Score.SS != c.Base {
			t.Errorf("%s: ss %f, want base %f", name, results[0].Score.SS, c.Base)
		}
	}
	opt := Options{K: 1, Scheme: rank.StructureFirst}
	run("DPO", DPO(f.ev, c, opt))
	run("SSO", SSO(c, f.est, opt))
	run("Hybrid", Hybrid(c, f.est, opt))
}

// TestLargeKAllAgree: with K larger than the loosest level's answer
// count, all three algorithms return the same set of nodes.
func TestLargeKAllAgree(t *testing.T) {
	f := newFixture(t, articlesXML)
	c := f.chain(t, srcQ1)
	opt := Options{K: 100, Scheme: rank.StructureFirst}
	sets := map[string]map[xmltree.NodeID]bool{}
	for name, results := range map[string][]Result{
		"DPO":    DPO(f.ev, c, opt),
		"SSO":    SSO(c, f.est, Options{K: 100, Scheme: rank.StructureFirst}),
		"Hybrid": Hybrid(c, f.est, Options{K: 100, Scheme: rank.StructureFirst}),
	} {
		s := map[xmltree.NodeID]bool{}
		for _, r := range results {
			s[r.Node] = true
		}
		sets[name] = s
	}
	loosest := f.ev.Evaluate(c.QueryAt(c.Len()))
	if len(loosest) == 0 {
		t.Fatal("loosest level empty")
	}
	for name, s := range sets {
		if len(s) != len(loosest) {
			t.Errorf("%s returned %d nodes, loosest level has %d", name, len(s), len(loosest))
		}
		for _, n := range loosest {
			if !s[n] {
				t.Errorf("%s missing answer %d", name, n)
			}
		}
	}
}

// TestKeywordFirstEncodesEverything: under keyword-first, SSO must encode
// the full chain (§5.1: an answer with the worst structural score might
// make the top-K).
func TestKeywordFirstEncodesEverything(t *testing.T) {
	f := newFixture(t, articlesXML)
	c := f.chain(t, srcQ1)
	var m Metrics
	SSO(c, f.est, Options{K: 1, Scheme: rank.KeywordFirst, Metrics: &m})
	if m.RelaxationsEncoded != c.Len() {
		t.Errorf("keyword-first encoded %d relaxations, want full chain %d", m.RelaxationsEncoded, c.Len())
	}
}

// TestMetricsSeparateAlgorithms: DPO evaluates multiple queries while
// SSO/Hybrid run one plan; SSO sorts tuples while Hybrid buckets them.
func TestMetricsSeparateAlgorithms(t *testing.T) {
	f := xmarkFixture(t, 96<<10, 5)
	c := f.chain(t, `//item[./description/parlist and ./mailbox/mail/text]`)
	k := 60

	var md, ms, mh Metrics
	DPO(f.ev, c, Options{K: k, Scheme: rank.StructureFirst, Metrics: &md})
	SSO(c, f.est, Options{K: k, Scheme: rank.StructureFirst, Metrics: &ms})
	Hybrid(c, f.est, Options{K: k, Scheme: rank.StructureFirst, Metrics: &mh})

	if md.QueriesEvaluated < 2 {
		t.Errorf("DPO evaluated %d queries, expected several (relaxations needed)", md.QueriesEvaluated)
	}
	if ms.PlansRun < 1 || mh.PlansRun < 1 {
		t.Error("SSO/Hybrid did not run a plan")
	}
	if ms.Pipeline.SortedTuples == 0 {
		t.Error("SSO never sorted intermediate results")
	}
	if mh.Pipeline.SortedTuples != 0 {
		t.Error("Hybrid sorted intermediate results")
	}
	if mh.Pipeline.Buckets == 0 {
		t.Error("Hybrid created no buckets")
	}
}

// TestSSORestart: feed SSO an estimator that overestimates wildly so its
// first prefix is too short, and verify it restarts and still returns K
// answers.
func TestSSORestart(t *testing.T) {
	f := newFixture(t, articlesXML)
	c := f.chain(t, srcQ1)
	var m Metrics
	// K=3 requires relaxations; the real estimator may or may not be
	// accurate on this tiny document, so force the situation by asking
	// for more answers than the exact query has.
	results := SSO(c, f.est, Options{K: 3, Scheme: rank.StructureFirst, Metrics: &m})
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	t.Logf("restarts=%d encoded=%d", m.Restarts, m.RelaxationsEncoded)
}

func TestResultOrderingSchemes(t *testing.T) {
	f := newFixture(t, articlesXML)
	c := f.chain(t, srcQ1)
	for _, scheme := range schemes() {
		for name, results := range map[string][]Result{
			"DPO":    DPO(f.ev, c, Options{K: 4, Scheme: scheme}),
			"SSO":    SSO(c, f.est, Options{K: 4, Scheme: scheme}),
			"Hybrid": Hybrid(c, f.est, Options{K: 4, Scheme: scheme}),
		} {
			for i := 1; i < len(results); i++ {
				if results[i].Score.Compare(results[i-1].Score, scheme) > 0 {
					t.Errorf("%s %v: results out of order at %d", name, scheme, i)
				}
			}
		}
	}
}

// TestDPOVariantsAgree: plan-based DPO (with intra-plan exclusion of
// previous answers) must agree with the semijoin formulation of DPO, built
// here from the two-pass exact evaluator: level by level, the answers of
// level j not admitted at any earlier level, taken until K are gathered.
// Both must hold the same nodes at the same levels with the same
// structural scores; every level below the last one reached is complete.
func TestDPOVariantsAgree(t *testing.T) {
	f := xmarkFixture(t, 96<<10, 5)
	for _, src := range []string{
		`//item[./description/parlist]`,
		`//item[./description/parlist and ./mailbox/mail/text]`,
	} {
		c := f.chain(t, src)
		level := map[xmltree.NodeID]int{}
		var perLevel []int
		for j := 0; j <= c.Len(); j++ {
			fresh := 0
			for _, n := range f.ev.Evaluate(c.QueryAt(j)) {
				if _, seen := level[n]; !seen {
					level[n] = j
					fresh++
				}
			}
			perLevel = append(perLevel, fresh)
		}
		for _, k := range []int{5, 40} {
			want := make([]int, len(perLevel))
			for j, left := 0, k; j < len(perLevel) && left > 0; j++ {
				want[j] = min(perLevel[j], left)
				left -= want[j]
			}
			got := make([]int, len(perLevel))
			results := DPO(f.ev, c, Options{K: k, Scheme: rank.StructureFirst})
			for i, r := range results {
				if j, ok := level[r.Node]; !ok || j != r.Relaxations {
					t.Errorf("%s k=%d rank %d: node %d at level %d, semijoin level %d (%v)",
						src, k, i, r.Node, r.Relaxations, j, ok)
				}
				if r.Score.SS != c.SSAt(r.Relaxations) {
					t.Errorf("%s k=%d rank %d: ss %f != level score %f",
						src, k, i, r.Score.SS, c.SSAt(r.Relaxations))
				}
				if r.Relaxations >= 0 && r.Relaxations < len(got) {
					got[r.Relaxations]++
				}
			}
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("%s k=%d level %d: DPO returned %d answers, semijoin %d",
						src, k, j, got[j], want[j])
				}
			}
		}
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

// TestRelaxedPlanTuplesBounded: SSO and Hybrid take an answer's best over
// its bindings without building every binding. On a 1 MB XMark document
// (seed 42), the plan they run for XQ3 at K = 500 built 40 128 tuples
// when every binding of a variable read only to earn a penalty back was
// joined; DPO's levels build 586. The pin is a quarter of the former.
func TestRelaxedPlanTuplesBounded(t *testing.T) {
	f := xmarkFixture(t, 1<<20, 42)
	c := f.chain(t, `//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]`)
	for name, run := range map[string]func(Options) []Result{
		"SSO":    func(o Options) []Result { return SSO(c, f.est, o) },
		"Hybrid": func(o Options) []Result { return Hybrid(c, f.est, o) },
	} {
		var m Metrics
		if rs := run(Options{K: 500, Metrics: &m}); len(rs) != 500 {
			t.Fatalf("%s: %d results, want 500", name, len(rs))
		}
		t.Logf("%s: %d tuples", name, m.Pipeline.TuplesGenerated)
		if m.Pipeline.TuplesGenerated > 10_032 {
			t.Errorf("%s built %d tuples, pinned at 10 032", name, m.Pipeline.TuplesGenerated)
		}
	}
}

// TestToResultsManySignatures: toResults shares one Missed list per
// signature, found in a short list and past it through a map. Over
// answers with 40 distinct signatures, in an order that revisits early
// ones after the map took over, every result's level and Missed list must
// be those its own signature gives.
func TestToResultsManySignatures(t *testing.T) {
	f := xmarkFixture(t, 64<<10, 5)
	c := f.chain(t, `//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]`)
	encoded := min(c.Len(), 20)
	r := rand.New(rand.NewSource(3))
	var all uint64
	for j := 1; j <= encoded; j++ {
		all |= c.StepBits(j)
	}
	// Three draws OR-ed set 7 bits in 8, so some steps are met in full.
	sigs := make([]uint64, 40)
	distinct := map[uint64]bool{}
	for i := range sigs {
		sigs[i] = r.Uint64() | r.Uint64() | r.Uint64()
		distinct[sigs[i]&all] = true
	}
	if len(distinct) <= 16 {
		t.Fatalf("%d distinct signatures over %d encoded steps: the map is not reached", len(distinct), encoded)
	}
	answers := make([]exec.Answer, 300)
	for i := range answers {
		answers[i] = exec.Answer{Node: xmltree.NodeID(i), Sig: sigs[(i*7)%len(sigs)]}
	}
	opts := Options{Metrics: &Metrics{RelaxationsEncoded: encoded}}
	results := toResults(c, answers, opts, len(answers))
	for i, a := range answers {
		level := 0
		for j := encoded; j >= 1; j-- {
			if a.Sig&c.StepBits(j) != c.StepBits(j) {
				level = j
				break
			}
		}
		var missed []string
		for j := 1; j <= level; j++ {
			if a.Sig&c.StepBits(j) != c.StepBits(j) {
				missed = append(missed, c.Steps[j-1].Desc)
			}
		}
		if got := results[i]; got.Node != a.Node || got.Relaxations != level || !slices.Equal(got.Missed, missed) {
			t.Fatalf("answer %d: got level %d, missed %q; want %d, %q", i, got.Relaxations, got.Missed, level, missed)
		}
	}
}
