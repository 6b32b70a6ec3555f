package flexpath

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"flexpath/internal/xmark"
)

// renderAnswers serializes a ranking so tests can assert byte-identity:
// per answer its rank, document name (collection answers only), node,
// path, ID, both scores as float64 bit patterns, relaxation level,
// Relaxed detail, and up to snippet bytes of snippet (none when
// snippet <= 0).
func renderAnswers[A Answer | CollectionAnswer](answers []A, snippet int) string {
	var sb strings.Builder
	for i, x := range answers {
		var a Answer
		var name string
		switch x := any(x).(type) {
		case Answer:
			a = x
		case CollectionAnswer:
			a, name = x.Answer, x.DocName
		}
		fmt.Fprintf(&sb, "%d|%s|%d|%s|%s|%x|%x|%d|%q|%q\n", i, name, a.node, a.Path, a.ID,
			math.Float64bits(a.Structural), math.Float64bits(a.Keyword), a.Relaxations, a.Relaxed, a.Snippet(snippet))
	}
	return sb.String()
}

func xmarkDoc(t *testing.T, kb int, seed int64) *Document {
	t.Helper()
	tree, err := xmark.Build(xmark.Config{TargetBytes: int64(kb) << 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return NewDocument(tree)
}

// TestCachedAnswersIdenticalToCold is the correctness contract of the
// result cache: for every algorithm, a cache hit returns exactly the
// ranking a cold evaluation produces. A one-member collection of the
// document returns the same answers, cold, on a miss and on a hit, page
// by page (an offset past the end included): a document search is the
// one-member case of the collection path.
func TestCachedAnswersIdenticalToCold(t *testing.T) {
	doc := xmarkDoc(t, 200, 7)
	doc.SetCache(64)
	one := NewCollection()
	one.SetCache(64)
	if err := one.Add("doc.xml", doc); err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`//item[./description/parlist and ./mailbox/mail/text]`)
	for _, algo := range []Algorithm{Hybrid, SSO, DPO} {
		for _, scheme := range []Scheme{StructureFirst, KeywordFirst, Combined} {
			for _, page := range []struct{ k, offset int }{{15, 0}, {5, 4}, {5, 1000}} {
				opts := SearchOptions{K: page.k, Offset: page.offset, Algorithm: algo, Scheme: scheme}
				name := fmt.Sprintf("%v/%v/k=%d/o=%d", algo, scheme, page.k, page.offset)
				coldOpts := opts
				coldOpts.NoCache = true
				cold, err := doc.Search(q, coldOpts)
				if err != nil {
					t.Fatalf("%s cold: %v", name, err)
				}
				if _, err := doc.Search(q, opts); err != nil { // miss, populates
					t.Fatalf("%s prime: %v", name, err)
				}
				warm, err := doc.Search(q, opts) // hit
				if err != nil {
					t.Fatalf("%s warm: %v", name, err)
				}
				if renderAnswers(cold, 0) != renderAnswers(warm, 0) {
					t.Errorf("%s: cached ranking differs from cold evaluation\ncold:\n%swarm:\n%s",
						name, renderAnswers(cold, 0), renderAnswers(warm, 0))
				}
				for i, o := range []SearchOptions{coldOpts, opts, opts} { // cold, miss, hit
					got, err := one.Search(q, o)
					if err != nil {
						t.Fatalf("%s one-member collection: %v", name, err)
					}
					answers := make([]Answer, len(got))
					for j, a := range got {
						answers[j] = a.Answer
					}
					if !reflect.DeepEqual(answers, cold) {
						t.Errorf("%s one-member collection search %d differs from the document's:\n%s\nvs\n%s",
							name, i, renderAnswers(answers, 0), renderAnswers(cold, 0))
					}
				}
			}
		}
	}
	// 27 searches: each primed once (miss) and hit once; NoCache runs
	// must not touch the cache at all.
	for _, c := range []interface{ CacheStats() (CacheStats, bool) }{doc, one} {
		if st, ok := c.CacheStats(); !ok || st.Misses != 27 || st.Hits != 27 {
			t.Errorf("cache counters = %+v, want 27 misses / 27 hits", st)
		}
	}
}

// TestCacheHitNotPoisonedByCallerMutation is the regression test for
// the cache aliasing bug: cached results were handed to callers without
// copying the Relaxed explanation slices, so a caller mutating its
// answers silently rewrote the cache entry for every later hit.
func TestCacheHitNotPoisonedByCallerMutation(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	doc.SetCache(16)
	q := MustParseQuery(paperQ1)
	opts := SearchOptions{K: 5, Algorithm: Hybrid}
	first, err := doc.Search(q, opts) // miss, populates the cache
	if err != nil {
		t.Fatal(err)
	}
	want := renderAnswers(first, 0)
	relaxed := false
	for i := range first {
		for j := range first[i].Relaxed {
			first[i].Relaxed[j] = "CLOBBERED"
			relaxed = true
		}
	}
	if !relaxed {
		t.Fatal("workload produced no relaxed answers; test exercises nothing")
	}
	second, err := doc.Search(q, opts) // hit
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAnswers(second, 0); got != want {
		t.Errorf("mutating a miss's answers poisoned the cache\nwant:\n%sgot:\n%s", want, got)
	}
	// Mutating a hit's answers must not poison later hits either.
	for i := range second {
		for j := range second[i].Relaxed {
			second[i].Relaxed[j] = "CLOBBERED"
		}
	}
	third, err := doc.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAnswers(third, 0); got != want {
		t.Errorf("mutating a hit's answers poisoned the cache\nwant:\n%sgot:\n%s", want, got)
	}
}

func TestCacheKeySeparatesOptions(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	doc.SetCache(64)
	q := MustParseQuery(paperQ1)
	a2, err := doc.Search(q, SearchOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	a3, err := doc.Search(q, SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a2) != 2 || len(a3) != 3 {
		t.Fatalf("K confusion across cache entries: %d, %d", len(a2), len(a3))
	}
	// Different scheme must not collide either. The algorithm is pinned
	// because the byte-identity check covers Relaxed, which only the
	// plan-based algorithms populate: the adaptive Auto mode may switch
	// to DPO between the two searches as its calibration evolves.
	kw, err := doc.Search(q, SearchOptions{K: 2, Scheme: KeywordFirst, Algorithm: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	kwCold, err := doc.Search(q, SearchOptions{K: 2, Scheme: KeywordFirst, Algorithm: Hybrid, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if renderAnswers(kw, 0) != renderAnswers(kwCold, 0) {
		t.Error("scheme-specific entry polluted by other scheme")
	}
	if st, _ := doc.CacheStats(); st.Entries != 3 {
		t.Errorf("entries = %d, want 3 distinct", st.Entries)
	}
}

func TestCachePaginationSharing(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	doc.SetCache(64)
	q := MustParseQuery(paperQ1)
	full, err := doc.Search(q, SearchOptions{K: 3, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doc.Search(q, SearchOptions{K: 2, Offset: 1}); err != nil {
		t.Fatal(err)
	}
	page, err := doc.Search(q, SearchOptions{K: 2, Offset: 1}) // hit
	if err != nil {
		t.Fatal(err)
	}
	if renderAnswers(page, 0) != renderAnswers(full[1:], 0) {
		t.Errorf("cached page differs:\n%s\nvs\n%s", renderAnswers(page, 0), renderAnswers(full[1:], 0))
	}
}

func TestCacheEviction(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	doc.SetCache(1)
	q := MustParseQuery(paperQ1)
	for k := 1; k <= 4; k++ {
		if _, err := doc.Search(q, SearchOptions{K: k}); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := doc.CacheStats()
	if st.Evictions == 0 {
		t.Errorf("no evictions in a capacity-1 cache: %+v", st)
	}
	if st.Entries > 1 {
		t.Errorf("capacity-1 cache holds %d entries", st.Entries)
	}
	// Post-eviction correctness: the evicted query re-evaluates cleanly.
	a, err := doc.Search(q, SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || a[0].ID != "a1" {
		t.Errorf("post-eviction answer: %+v", a)
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.CacheStats(); ok {
		t.Error("cache reported enabled on a fresh document")
	}
	doc.SetCache(8)
	if _, ok := doc.CacheStats(); !ok {
		t.Error("SetCache did not enable the cache")
	}
	doc.SetCache(0)
	if _, ok := doc.CacheStats(); ok {
		t.Error("SetCache(0) did not disable the cache")
	}
}

func TestCacheHitZeroesMetrics(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	doc.SetCache(8)
	q := MustParseQuery(paperQ1)
	var m Metrics
	if _, err := doc.Search(q, SearchOptions{K: 3, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if m.QueriesEvaluated == 0 {
		t.Fatal("cold run reported no work")
	}
	if _, err := doc.Search(q, SearchOptions{K: 3, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if m.QueriesEvaluated != 0 || m.PlansRun != 0 {
		t.Errorf("cache hit reported work: %+v", m)
	}
}

// TestCollectionCacheIdenticalAndCoversAdd: a collection cache hit is the
// cold ranking, and after an Add the cached entry is extended by the new
// member rather than served stale. The algorithm is pinned: the ranking
// covers Relaxed, which only the plan-based algorithms fill.
func TestCollectionCacheIdenticalAndCoversAdd(t *testing.T) {
	c := testCollection(t)
	c.SetCache(16)
	q := MustParseQuery(paperQ1)
	opts := SearchOptions{K: 3, Algorithm: Hybrid}
	nc := opts
	nc.NoCache = true
	cold, err := c.Search(q, nc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(q, opts); err != nil {
		t.Fatal(err)
	}
	warm, err := c.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if renderAnswers(cold, 0) != renderAnswers(warm, 0) {
		t.Errorf("collection cache hit differs from cold run:\n%s\nvs\n%s",
			renderAnswers(cold, 0), renderAnswers(warm, 0))
	}
	st, ok := c.CacheStats()
	if !ok || st.Hits != 1 {
		t.Errorf("collection cache stats = %+v ok=%v", st, ok)
	}

	// After an Add the new corpus is searched, not served from the entry
	// as it was.
	extra, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add("extra.xml", extra); err != nil {
		t.Fatal(err)
	}
	after, err := c.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, a := range after {
		if a.DocName == "extra.xml" {
			seen = true
		}
	}
	if !seen {
		t.Errorf("stale cache served after Add: %s", renderAnswers(after, 0))
	}
}

// TestCollectionCacheHitNotPoisonedByCallerMutation is the
// collection-level half of the cache aliasing regression: merged
// CollectionAnswer slices were cached and returned shallowly, so a
// caller rewriting Relaxed explanations corrupted every later hit.
func TestCollectionCacheHitNotPoisonedByCallerMutation(t *testing.T) {
	c := testCollection(t)
	c.SetCache(16)
	q := MustParseQuery(paperQ1)
	// Pinned: only the plan-based algorithms fill Relaxed.
	opts := SearchOptions{K: 3, Algorithm: Hybrid}
	first, err := c.Search(q, opts) // miss, populates
	if err != nil {
		t.Fatal(err)
	}
	want := renderAnswers(first, 0)
	relaxed := false
	for i := range first {
		for j := range first[i].Relaxed {
			first[i].Relaxed[j] = "CLOBBERED"
			relaxed = true
		}
	}
	if !relaxed {
		t.Fatal("workload produced no relaxed answers; test exercises nothing")
	}
	second, err := c.Search(q, opts) // hit
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAnswers(second, 0); got != want {
		t.Errorf("mutating a miss's answers poisoned the collection cache\nwant:\n%sgot:\n%s", want, got)
	}
	for i := range second {
		for j := range second[i].Relaxed {
			second[i].Relaxed[j] = "CLOBBERED"
		}
	}
	third, err := c.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAnswers(third, 0); got != want {
		t.Errorf("mutating a hit's answers poisoned the collection cache\nwant:\n%sgot:\n%s", want, got)
	}
}

// TestCollectionDocumentCaches: SetDocumentCaches gives every member a
// cache that serves direct searches of the member, and that collection
// searches leave alone.
func TestCollectionDocumentCaches(t *testing.T) {
	c := testCollection(t)
	c.SetDocumentCaches(8)
	q := MustParseQuery(paperQ1)
	if _, err := c.Search(q, SearchOptions{K: 3}); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.DocumentCacheStats(); st.Hits+st.Misses != 0 {
		t.Errorf("a collection search used the member caches: %+v", st)
	}
	a, _ := c.Document("a.xml")
	for i := 0; i < 2; i++ {
		if _, err := a.Search(q, SearchOptions{K: 3}); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := c.DocumentCacheStats()
	if !ok || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("per-document caches after two direct searches: %+v ok=%v, want 1 hit / 1 miss", st, ok)
	}
	c.SetDocumentCaches(0)
	if _, ok := c.DocumentCacheStats(); ok {
		t.Error("SetDocumentCaches(0) did not disable")
	}
}
