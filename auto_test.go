package flexpath

import (
	"fmt"
	"testing"
)

// ruleAlgorithm is what Auto must run for paperQ1, which has a contains
// predicate: Hybrid under keyword-first, DPO otherwise.
func ruleAlgorithm(s Scheme) Algorithm {
	if s == KeywordFirst {
		return Hybrid
	}
	return DPO
}

// TestAutoMatchesFixedAlgorithms: for every scheme and K, the default
// (Auto) search runs the rule's algorithm, names it in Metrics.Algorithm,
// and returns exactly the ranking that algorithm returns when requested
// explicitly.
func TestAutoMatchesFixedAlgorithms(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	for _, scheme := range []Scheme{StructureFirst, KeywordFirst, Combined} {
		algo := ruleAlgorithm(scheme)
		for _, k := range []int{1, 3, 10} {
			var m Metrics
			auto, err := doc.Search(q, SearchOptions{
				K: k, Scheme: scheme, Metrics: &m, NoCache: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if m.Algorithm != algo.String() {
				t.Fatalf("%v k=%d: Auto ran %q, want %v", scheme, k, m.Algorithm, algo)
			}
			fixed, err := doc.Search(q, SearchOptions{
				K: k, Scheme: scheme, Algorithm: algo, NoCache: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderAnswers(auto, 0), renderAnswers(fixed, 0); got != want {
				t.Errorf("%v k=%d: Auto differs from %v:\n%s\nvs\n%s",
					scheme, k, algo, got, want)
			}
		}
	}
}

// TestAutoMetricsNameAlgorithm: Auto searches report the algorithm that
// ran and the rule's branch that chose it; fixed-algorithm searches name
// themselves with no reason.
func TestAutoMetricsNameAlgorithm(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src          string
		scheme       Scheme
		algo, reason string
	}{
		{paperQ1, StructureFirst, "DPO", "not keyword-first with contains"},
		{paperQ1, KeywordFirst, "Hybrid", "keyword-first with contains"},
		{`//article[./section/algorithm]`, KeywordFirst, "DPO", "not keyword-first with contains"},
	} {
		var m Metrics
		if _, err := doc.Search(MustParseQuery(tc.src), SearchOptions{K: 3, Scheme: tc.scheme, Metrics: &m}); err != nil {
			t.Fatal(err)
		}
		if m.Algorithm != tc.algo || m.AlgoReason != tc.reason {
			t.Errorf("%s %v: Auto reported %q / %q, want %q / %q", tc.src, tc.scheme, m.Algorithm, m.AlgoReason, tc.algo, tc.reason)
		}
	}
	var m Metrics
	if _, err := doc.Search(MustParseQuery(paperQ1), SearchOptions{K: 3, Algorithm: SSO, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if m.Algorithm != "SSO" || m.AlgoReason != "" {
		t.Errorf("fixed SSO search reported %q / %q", m.Algorithm, m.AlgoReason)
	}
}

// TestAutoHistoryFree: Auto's choice for one query and scheme depends on
// nothing else. It is DPO on a fresh document, after 50 searches of other
// queries, on every member of a collection and after a Replace, and each
// time the ranking is byte-identical to DPO's.
func TestAutoHistoryFree(t *testing.T) {
	q := MustParseQuery(`//item[./description/parlist]`)
	check := func(what string, search func(Algorithm, *Metrics) (string, error)) {
		t.Helper()
		var m Metrics
		auto, err := search(Auto, &m)
		if err != nil {
			t.Fatal(err)
		}
		if m.Algorithm != "DPO" {
			t.Errorf("%s: Auto ran %q, want DPO", what, m.Algorithm)
		}
		fixed, err := search(DPO, nil)
		if err != nil {
			t.Fatal(err)
		}
		if auto != fixed {
			t.Errorf("%s: Auto ranking differs from DPO's:\n%s\nvs\n%s", what, auto, fixed)
		}
	}
	onDoc := func(d *Document) func(Algorithm, *Metrics) (string, error) {
		return func(a Algorithm, m *Metrics) (string, error) {
			answers, err := d.Search(q, SearchOptions{K: 10, Algorithm: a, Metrics: m, NoCache: true})
			return renderAnswers(answers, 0), err
		}
	}

	c := NewCollection()
	for i := 0; i < 3; i++ {
		if err := c.Add(fmt.Sprintf("m%d.xml", i), xmarkDoc(t, 64, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	onColl := func(a Algorithm, m *Metrics) (string, error) {
		answers, err := c.Search(q, SearchOptions{K: 10, Algorithm: a, Metrics: m, NoCache: true})
		return renderAnswers(answers, 0), err
	}
	d, _ := c.Document("m0.xml")
	check("fresh document", onDoc(d))

	others := []string{
		`//item[./description/parlist and ./mailbox/mail/text]`,
		`//item[./description[.contains("gold")] and ./name]`,
		`//item[./mailbox/mail/text[./bold and ./keyword]]`,
	}
	for i := 0; i < 50; i++ {
		o := SearchOptions{K: 5 + 50*(i%3), Scheme: Scheme(i % 3), NoCache: true}
		if _, err := c.Search(MustParseQuery(others[i%len(others)]), o); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Search(MustParseQuery(others[(i+1)%len(others)]), o); err != nil {
			t.Fatal(err)
		}
	}
	check("document after 50 other searches", onDoc(d))
	check("collection after 50 other searches", onColl)
	for _, name := range c.Names() {
		m, _ := c.Document(name)
		check("member "+name, onDoc(m))
	}
	if err := c.Replace("m1.xml", xmarkDoc(t, 64, 4)); err != nil {
		t.Fatal(err)
	}
	check("collection after Replace", onColl)
}

// TestCacheHitNamesProducingAlgorithm: a cache hit reports the
// algorithm that produced the entry alongside zeroed work counters.
func TestCacheHitNamesProducingAlgorithm(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	one := cachedOne(t, doc, 8)
	q := MustParseQuery(paperQ1)
	// The first search only sights the key; the second fills the entry.
	var cold Metrics
	for range 2 {
		if _, err := one.Search(q, SearchOptions{K: 3, Metrics: &cold}); err != nil {
			t.Fatal(err)
		}
	}
	var warm Metrics
	if _, err := one.Search(q, SearchOptions{K: 3, Metrics: &warm}); err != nil {
		t.Fatal(err)
	}
	if warm.Algorithm != cold.Algorithm {
		t.Errorf("cache hit reported %q, cold run %q", warm.Algorithm, cold.Algorithm)
	}
	if warm.QueriesEvaluated != 0 || warm.PlansRun != 0 {
		t.Errorf("cache hit reported work: %+v", warm)
	}
}

// TestCollectionCacheHitNamesProducingAlgorithm: a cache hit on a
// two-member collection names the algorithm that produced the cached
// ranking (under Auto, the rule's, with its reason), even when the search
// that filled the entry asked for no metrics; its work counters are zero.
func TestCollectionCacheHitNamesProducingAlgorithm(t *testing.T) {
	c := NewCollection()
	for _, name := range []string{"a.xml", "b.xml"} {
		doc, err := LoadString(articlesXML)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Add(name, doc); err != nil {
			t.Fatal(err)
		}
	}
	c.SetCache(8)
	q := MustParseQuery(paperQ1)
	for _, tc := range []struct {
		algo         Algorithm
		name, reason string
	}{
		{Auto, "DPO", "not keyword-first with contains"},
		{SSO, "SSO", ""},
	} {
		// The first search only sights the key; the second fills the entry.
		for range 2 {
			if _, err := c.Search(q, SearchOptions{K: 3, Algorithm: tc.algo}); err != nil {
				t.Fatal(err)
			}
		}
		var warm Metrics
		if _, err := c.Search(q, SearchOptions{K: 3, Algorithm: tc.algo, Metrics: &warm}); err != nil {
			t.Fatal(err)
		}
		if warm.Algorithm != tc.name || warm.AlgoReason != tc.reason {
			t.Errorf("%v cache hit reported %q / %q, want %q / %q", tc.algo, warm.Algorithm, warm.AlgoReason, tc.name, tc.reason)
		}
		if warm.QueriesEvaluated != 0 || warm.PlansRun != 0 {
			t.Errorf("%v cache hit reported work: %+v", tc.algo, warm)
		}
	}
	if s, _ := c.CacheStats(); s.Hits != 2 {
		t.Errorf("cache hits = %d, want 2", s.Hits)
	}
}

// TestCollectionAutoOneAlgorithm: an Auto collection search runs the
// rule's algorithm on every member, so its merged metrics name that
// algorithm under every scheme and count every member's work.
func TestCollectionAutoOneAlgorithm(t *testing.T) {
	c := pagingCollection(t)
	q := MustParseQuery(paperQ1)
	for _, scheme := range []Scheme{StructureFirst, KeywordFirst, Combined} {
		var m Metrics
		if _, err := c.Search(q, SearchOptions{K: 3, Scheme: scheme, Metrics: &m}); err != nil {
			t.Fatal(err)
		}
		if want := ruleAlgorithm(scheme).String(); m.Algorithm != want {
			t.Errorf("%v: merged metrics named %q, want %q", scheme, m.Algorithm, want)
		}
		if n := m.QueriesEvaluated + m.PlansRun; n < c.Len() {
			t.Errorf("%v: %d evaluations over %d members", scheme, n, c.Len())
		}
	}
}
