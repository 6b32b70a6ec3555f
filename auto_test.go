package flexpath

import "testing"

// TestAutoMatchesFixedAlgorithms: for every scheme and K, the default
// (Auto) ranking must be identical to the ranking of the algorithm the
// planner dispatched to (named in Metrics.Algorithm) when that same
// algorithm is requested explicitly — the planner picks a strategy, it
// never alters what the strategy returns.
func TestAutoMatchesFixedAlgorithms(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	for _, scheme := range []Scheme{StructureFirst, KeywordFirst, Combined} {
		for _, k := range []int{1, 3, 10} {
			var m Metrics
			auto, err := doc.Search(q, SearchOptions{
				K: k, Scheme: scheme, Metrics: &m, NoCache: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			algo, err := ParseAlgorithm(m.Algorithm)
			if err != nil {
				t.Fatalf("%v k=%d: unparsable chosen algorithm %q", scheme, k, m.Algorithm)
			}
			fixed, err := doc.Search(q, SearchOptions{
				K: k, Scheme: scheme, Algorithm: algo, NoCache: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderAnswers(auto, 0), renderAnswers(fixed, 0); got != want {
				t.Errorf("%v k=%d: Auto differs from chosen %v:\n%s\nvs\n%s",
					scheme, k, algo, got, want)
			}
		}
	}
}

// TestAutoMetricsNameAlgorithm: Auto searches must report which
// algorithm ran and why; fixed-algorithm searches name themselves with
// no reason.
func TestAutoMetricsNameAlgorithm(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	var m Metrics
	if _, err := doc.Search(q, SearchOptions{K: 3, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	switch m.Algorithm {
	case "DPO", "SSO", "Hybrid":
	default:
		t.Errorf("Auto reported algorithm %q", m.Algorithm)
	}
	if m.AlgoReason == "" {
		t.Error("Auto reported no reason")
	}
	m = Metrics{}
	if _, err := doc.Search(q, SearchOptions{K: 3, Algorithm: SSO, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if m.Algorithm != "SSO" || m.AlgoReason != "" {
		t.Errorf("fixed SSO search reported %q / %q", m.Algorithm, m.AlgoReason)
	}
}

// TestPlannerStatsAccumulate: the document's planner state must reflect
// Auto searches — one choice and one observation per run — and ignore
// fixed-algorithm searches.
func TestPlannerStatsAccumulate(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	for i := 0; i < 4; i++ {
		if _, err := doc.Search(q, SearchOptions{K: 3, NoCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := doc.Search(q, SearchOptions{K: 3, Algorithm: DPO, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	s := doc.PlannerStats()
	if s.Observations != 4 {
		t.Errorf("observations = %d, want 4", s.Observations)
	}
	total := uint64(0)
	for _, n := range s.Choices {
		total += n
	}
	if total != 4 {
		t.Errorf("choices = %v, want 4 total", s.Choices)
	}
	if len(s.NsPerUnit) == 0 {
		t.Error("no calibration state after observed runs")
	}
}

// TestCacheHitNamesProducingAlgorithm: a cache hit reports the
// algorithm that produced the entry alongside zeroed work counters.
func TestCacheHitNamesProducingAlgorithm(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	doc.SetCache(8)
	q := MustParseQuery(paperQ1)
	var cold Metrics
	if _, err := doc.Search(q, SearchOptions{K: 3, Metrics: &cold}); err != nil {
		t.Fatal(err)
	}
	var warm Metrics
	if _, err := doc.Search(q, SearchOptions{K: 3, Metrics: &warm}); err != nil {
		t.Fatal(err)
	}
	if warm.Algorithm != cold.Algorithm {
		t.Errorf("cache hit reported %q, cold run %q", warm.Algorithm, cold.Algorithm)
	}
	if warm.QueriesEvaluated != 0 || warm.PlansRun != 0 {
		t.Errorf("cache hit reported work: %+v", warm)
	}
}

// TestCollectionCacheHitNamesProducingAlgorithm: a collection cache hit,
// like a document one, names the algorithm that produced the cached
// ranking, even when the search that filled the entry asked for no
// metrics; its work counters are zero. Under Auto the members share one
// calibration, so they may choose differently: the hit then names
// "mixed", as the search that filled the entry did.
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
	for _, algo := range []Algorithm{Auto, SSO} {
		if _, err := c.Search(q, SearchOptions{K: 3, Algorithm: algo}); err != nil {
			t.Fatal(err)
		}
		var warm Metrics
		if _, err := c.Search(q, SearchOptions{K: 3, Algorithm: algo, Metrics: &warm}); err != nil {
			t.Fatal(err)
		}
		switch want := mergedChoice(c.PlannerStats()); {
		case algo == SSO && (warm.Algorithm != "SSO" || warm.AlgoReason != ""):
			t.Errorf("SSO cache hit reported %q / %q", warm.Algorithm, warm.AlgoReason)
		case algo == Auto && (warm.Algorithm != want || (want != "mixed") != (warm.AlgoReason != "")):
			t.Errorf("Auto cache hit reported %q / %q, want %q and the planner's reason", warm.Algorithm, warm.AlgoReason, want)
		}
		if warm.QueriesEvaluated != 0 || warm.PlansRun != 0 {
			t.Errorf("%v cache hit reported work: %+v", algo, warm)
		}
	}
	if s, _ := c.CacheStats(); s.Hits != 2 {
		t.Errorf("cache hits = %d, want 2", s.Hits)
	}
}

// mergedChoice is the algorithm name merged metrics report for the
// planner's choices so far: the one algorithm chosen, or "mixed".
func mergedChoice(s PlannerStats) string {
	if len(s.Choices) != 1 {
		return "mixed"
	}
	for a := range s.Choices {
		return a
	}
	return ""
}

// TestCollectionPlannerStats: one calibration counts every member's
// choice and observation, and merged metrics name the common algorithm
// when the members agree and "mixed" when they do not.
func TestCollectionPlannerStats(t *testing.T) {
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
	q := MustParseQuery(paperQ1)
	var m Metrics
	if _, err := c.Search(q, SearchOptions{K: 3, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	s := c.PlannerStats()
	if want := mergedChoice(s); m.Algorithm != want {
		t.Errorf("merged metrics named %q for choices %v, want %q", m.Algorithm, s.Choices, want)
	}
	if s.Observations != 2 {
		t.Errorf("observations = %d, want 2 (one per document)", s.Observations)
	}
	total := uint64(0)
	for _, n := range s.Choices {
		total += n
	}
	if total != 2 {
		t.Errorf("choices = %v, want 2 total", s.Choices)
	}
}
