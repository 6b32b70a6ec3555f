package flexpath

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flexpath/internal/obs"
)

// TestPlanCacheStampedeBuildsOnce is the regression test for the old
// chain memo's check-then-build race: N goroutines missing the same
// query shape at once must coalesce onto exactly one template build.
// Run under -race this also exercises the single-flight handoff. A first
// search sights the shape, so the stampede's one build is kept and a
// late arrival hits it.
func TestPlanCacheStampedeBuildsOnce(t *testing.T) {
	doc := xmarkDoc(t, 200, 7)
	q := MustParseQuery(`//item[./description/parlist and ./mailbox/mail/text]`)
	if _, err := doc.Search(q, SearchOptions{K: 10, Algorithm: Hybrid}); err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, n)
	rankings := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			answers, err := doc.Search(q, SearchOptions{K: 10, Algorithm: Hybrid})
			errs[i], rankings[i] = err, renderAnswers(answers, 0)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
		if rankings[i] != rankings[0] {
			t.Errorf("goroutine %d ranking differs:\n%s\nvs\n%s", i, rankings[i], rankings[0])
		}
	}
	st, ok := doc.PlanCacheStats()
	if !ok {
		t.Fatal("PlanCacheStats reported no cache")
	}
	if st.Misses != 2 {
		t.Errorf("Misses = %d, want 2 (the sighting, then one build for %d concurrent searches)", st.Misses, n)
	}
	if st.Hits+st.Dedups != n-1 {
		t.Errorf("Hits+Dedups = %d+%d, want %d", st.Hits, st.Dedups, n-1)
	}
}

// TestPlanCacheAnswersIdentical is the correctness contract of the plan
// cache: for every algorithm and scheme, a template hit returns exactly
// the ranking of a freshly built document, whose search builds its
// template from scratch.
func TestPlanCacheAnswersIdentical(t *testing.T) {
	cached := xmarkDoc(t, 200, 7)
	q := MustParseQuery(`//item[./description/parlist and ./mailbox/mail/text]`)
	// The template key covers the query alone, not the algorithm or the
	// scheme, and a template is kept on its second sighting: this first
	// search sights it, so that the first case's prime keeps it and every
	// warm search below is a template hit.
	if _, err := cached.Search(q, SearchOptions{K: 15}); err != nil {
		t.Fatalf("sighting: %v", err)
	}
	for _, algo := range []Algorithm{Auto, Hybrid, SSO, DPO} {
		for _, scheme := range []Scheme{StructureFirst, KeywordFirst, Combined} {
			opts := SearchOptions{K: 15, Algorithm: algo, Scheme: scheme}
			cold, err := xmarkDoc(t, 200, 7).Search(q, opts)
			if err != nil {
				t.Fatalf("%v/%v cold: %v", algo, scheme, err)
			}
			if _, err := cached.Search(q, opts); err != nil { // populates the template
				t.Fatalf("%v/%v prime: %v", algo, scheme, err)
			}
			before, _ := cached.PlanCacheStats()
			warm, err := cached.Search(q, opts) // template hit
			if err != nil {
				t.Fatalf("%v/%v warm: %v", algo, scheme, err)
			}
			if after, _ := cached.PlanCacheStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
				t.Errorf("%v/%v warm: plan cache %+v -> %+v, want one hit and no miss", algo, scheme, before, after)
			}
			if algo == Auto {
				// Auto's algorithm choice depends on its timing-calibrated
				// cost model, so the two documents may legitimately dispatch
				// differently — and DPO reports relaxation levels without
				// the per-answer Relaxed detail plan-based runs attach. The
				// ranking itself (nodes, scores, levels) must still match.
				for _, as := range [][]Answer{cold, warm} {
					for i := range as {
						as[i].Relaxed = nil
					}
				}
			}
			if c, w := renderAnswers(cold, 0), renderAnswers(warm, 0); c != w {
				t.Errorf("%v/%v: template-hit ranking differs from cold evaluation\ncold:\n%swarm:\n%s",
					algo, scheme, c, w)
			}
		}
	}
	st, ok := cached.PlanCacheStats()
	if !ok || st.Hits == 0 {
		t.Errorf("cached document recorded no template hits: %+v (ok=%v)", st, ok)
	}
}

// TestQueryAskedOnceLeavesNothing: both caches admit a key on its second
// sighting, so ad hoc queries, each asked once, keep neither a template
// nor a result part, while a query asked twice keeps one template per
// member and one entry, and its third ask is a hit that does no work.
func TestQueryAskedOnceLeavesNothing(t *testing.T) {
	c := NewCollection()
	for i := 0; i < 3; i++ {
		if err := c.Add(fmt.Sprintf("d%d.xml", i), xmarkDoc(t, 16, int64(40+i))); err != nil {
			t.Fatal(err)
		}
	}
	c.SetCache(1024)
	opts := SearchOptions{K: 5}
	for i := 0; i < 100; i++ {
		q := MustParseQuery(fmt.Sprintf(`//item[./name and .contains("w%d")]`, i))
		if _, err := c.Search(q, opts); err != nil {
			t.Fatal(err)
		}
	}
	ps, _ := c.PlanCacheStats()
	cs, _ := c.CacheStats()
	if ps.Entries != 0 || ps.Misses != 300 || cs.Entries != 0 || cs.Misses != 100 {
		t.Fatalf("after 100 fresh queries: plan cache %+v, result cache %+v; want 300 and 100 misses, nothing kept", ps, cs)
	}
	q := MustParseQuery(`//item[./description/parlist and .contains("gold")]`)
	for range 2 {
		if _, err := c.Search(q, opts); err != nil {
			t.Fatal(err)
		}
	}
	ps, _ = c.PlanCacheStats()
	cs, _ = c.CacheStats()
	if ps.Entries != 3 || cs.Entries != 1 {
		t.Fatalf("a query asked twice left %d templates and %d entries, want 3 and 1", ps.Entries, cs.Entries)
	}
	var m Metrics
	if _, err := c.Search(q, SearchOptions{K: 5, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if now, _ := c.CacheStats(); now.Hits != cs.Hits+1 || m.QueriesEvaluated != 0 || m.PlansRun != 0 {
		t.Errorf("third ask: result-cache hits %d -> %d, metrics %+v; want a hit that did no work", cs.Hits, now.Hits, m)
	}
}

// TestPlanCacheBounded feeds far more distinct query shapes than the
// cache's capacity: the cache must stay within its bound and account for
// every displaced template, where the old unbounded memo grew without
// limit. Each shape is searched twice, so that its template is kept.
func TestPlanCacheBounded(t *testing.T) {
	doc := xmarkDoc(t, 64, 3)
	const shapes = 2 * DefaultPlanCacheCapacity
	for i := 0; i < shapes; i++ {
		// Distinct K values produce distinct contains terms, hence
		// distinct canonical queries and distinct template keys.
		q := MustParseQuery(fmt.Sprintf(`//item[./name and .contains("term%d")]`, i))
		for range 2 {
			if _, err := doc.Search(q, SearchOptions{K: 3, Algorithm: Hybrid}); err != nil {
				t.Fatalf("shape %d: %v", i, err)
			}
		}
	}
	st, ok := doc.PlanCacheStats()
	if !ok {
		t.Fatal("PlanCacheStats reported no cache")
	}
	if st.Entries > st.Capacity {
		t.Errorf("Entries = %d exceeds Capacity = %d", st.Entries, st.Capacity)
	}
	if st.Capacity < DefaultPlanCacheCapacity || st.Capacity >= 2*DefaultPlanCacheCapacity {
		t.Errorf("Capacity = %d, want within [%d, %d)", st.Capacity, DefaultPlanCacheCapacity, 2*DefaultPlanCacheCapacity)
	}
	if st.Misses != 2*shapes {
		t.Errorf("Misses = %d, want %d (every shape distinct, each searched twice)", st.Misses, 2*shapes)
	}
	if got, want := st.Evictions, uint64(shapes-st.Entries); got != want {
		t.Errorf("Evictions = %d, want %d (misses - retained entries)", got, want)
	}
}

// TestPlanCacheSkipsChainAndPlanStages asserts the observable point of
// the template cache: a hit skips chain construction and (under Auto)
// plan construction, so the StageChain and StagePlan spans collapse to
// lookups.
func TestPlanCacheSkipsChainAndPlanStages(t *testing.T) {
	doc := xmarkDoc(t, 200, 7)
	q := MustParseQuery(`//item[./description/parlist and ./mailbox/mail/text]`)
	search := func() obs.SlowEntry {
		t.Helper()
		reg := obs.NewRegistry()
		span := reg.StartSpan(time.Now(), q.String(), "Auto", "structure-first", 10)
		ctx := obs.WithSpan(context.Background(), span)
		if _, err := doc.SearchContext(ctx, q, SearchOptions{K: 10}); err != nil {
			t.Fatal(err)
		}
		span.Finish("ok")
		top := reg.SlowLog().Top(1)
		if len(top) != 1 {
			t.Fatalf("slowlog entries = %d, want 1", len(top))
		}
		return top[0]
	}
	search() // cold: builds the template, and only sights its key
	search() // cold again: builds chain, levels and plans into the kept template
	warm := search()
	st, ok := doc.PlanCacheStats()
	if !ok || st.Hits == 0 {
		t.Fatalf("no template hit recorded: %+v (ok=%v)", st, ok)
	}
	// A hit's chain stage is one cache lookup and its plan stage memoized
	// arithmetic; generous absolute bounds keep this stable on loaded
	// machines while still catching a rebuild (which costs much more).
	const budget = 5 * time.Millisecond
	if d := warm.Stages[obs.StageChain]; d > budget {
		t.Errorf("template hit spent %v in StageChain, want ~zero (<= %v)", d, budget)
	}
	if d := warm.Stages[obs.StagePlan]; d > budget {
		t.Errorf("template hit spent %v in StagePlan, want ~zero (<= %v)", d, budget)
	}
}

// TestLoadAutoShortFiles covers the magic-sniff fix: files shorter than
// the 4-byte magic must fall through to XML parsing (reporting an XML
// error, not an I/O error), and a 4-byte XML document must still load.
func TestLoadAutoShortFiles(t *testing.T) {
	dir := t.TempDir()
	for n := 0; n <= 3; n++ {
		path := filepath.Join(dir, fmt.Sprintf("short%d.xml", n))
		if err := os.WriteFile(path, []byte("<a/>"[:n]), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadAuto(path); err == nil {
			t.Errorf("%d-byte file loaded as a document", n)
		}
	}
	path := filepath.Join(dir, "tiny.xml")
	if err := os.WriteFile(path, []byte("<a/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := LoadAuto(path)
	if err != nil {
		t.Fatalf("4-byte XML document: %v", err)
	}
	if doc.Nodes() != 1 {
		t.Errorf("Nodes = %d, want 1", doc.Nodes())
	}
}

// TestAnswerSnippetNonPositive pins the n <= 0 contract on both snippet
// paths: the full-text path (query with a contains predicate) and the
// structure-only path must return "", not a bare ellipsis.
func TestAnswerSnippetNonPositive(t *testing.T) {
	doc, err := LoadString(`<collection><article id="a1"><section><paragraph>` +
		`plenty of XML streaming text to force truncation at any positive budget` +
		`</paragraph></section></article></collection>`)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`//article[./section/paragraph[.contains("streaming")]]`, // full-text path
		`//article[./section/paragraph]`,                         // structure-only path
	}
	for _, src := range queries {
		answers, err := doc.Search(MustParseQuery(src), SearchOptions{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) != 1 {
			t.Fatalf("%s: answers = %d, want 1", src, len(answers))
		}
		for _, n := range []int{0, -1, -100} {
			if s := answers[0].Snippet(n); s != "" {
				t.Errorf("%s: Snippet(%d) = %q, want \"\"", src, n, s)
			}
		}
		if s := answers[0].Snippet(10); s == "" {
			t.Errorf("%s: Snippet(10) returned nothing", src)
		}
	}
}

// TestRelaxationsWithWeights is the regression test for Relaxations
// ignoring weights: the reported penalties must scale with the weights
// exactly as a weighted search's scores do.
func TestRelaxationsWithWeights(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	uniform, err := doc.Relaxations(context.Background(), q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := doc.Relaxations(context.Background(), q, SearchOptions{Weights: Weights{Structural: 2, Contains: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(uniform) == 0 || len(uniform) != len(weighted) {
		t.Fatalf("step counts: uniform=%d weighted=%d", len(uniform), len(weighted))
	}
	changed := false
	for i := range uniform {
		if weighted[i].Penalty != uniform[i].Penalty {
			changed = true
		}
		// Doubling every predicate weight must exactly double each step's
		// penalty (penalties are sums of relaxed predicates' weights).
		if got, want := weighted[i].Penalty, 2*uniform[i].Penalty; got != want {
			t.Errorf("step %d: weighted penalty = %g, want %g", i+1, got, want)
		}
	}
	if !changed {
		t.Error("weights had no effect on any penalty")
	}
	for i := range uniform {
		// Step scores are the exact-match score minus accumulated
		// penalties, so they double with the weights too.
		if got, want := weighted[i].Score, 2*uniform[i].Score; got != want {
			t.Errorf("step %d: weighted score = %g, want %g", i+1, got, want)
		}
	}

	// Search under the same weights must rank by the same doubled scale:
	// every weighted answer's structural score is exactly double its
	// uniform counterpart's.
	wopts := SearchOptions{K: 5, Algorithm: Hybrid, Weights: Weights{Structural: 2, Contains: 2}}
	uopts := SearchOptions{K: 5, Algorithm: Hybrid}
	wAnswers, err := doc.Search(q, wopts)
	if err != nil {
		t.Fatal(err)
	}
	uAnswers, err := doc.Search(q, uopts)
	if err != nil {
		t.Fatal(err)
	}
	if len(wAnswers) != len(uAnswers) {
		t.Fatalf("answer counts: weighted=%d uniform=%d", len(wAnswers), len(uAnswers))
	}
	for i := range wAnswers {
		if got, want := wAnswers[i].Structural, 2*uAnswers[i].Structural; got != want {
			t.Errorf("answer %d: weighted structural score = %g, want %g", i, got, want)
		}
	}
}
