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

// cachedOne returns a one-member collection of doc with a result cache
// of the given capacity: the collection is the only owner of a result
// cache.
func cachedOne(t *testing.T, doc *Document, capacity int) *Collection {
	t.Helper()
	c := NewCollection()
	c.SetCache(capacity)
	if err := c.Add("doc.xml", doc); err != nil {
		t.Fatal(err)
	}
	return c
}

// plain strips the document names from collection answers.
func plain(got []CollectionAnswer) []Answer {
	answers := make([]Answer, len(got))
	for i, a := range got {
		answers[i] = a.Answer
	}
	return answers
}

// TestCachedAnswersIdenticalToCold is the correctness contract of the
// result cache: for every algorithm, scheme and page (an offset past the
// end included), a one-member collection of a document returns exactly
// the document's direct (uncached) ranking, cold, on a miss and on a hit:
// a document search is the one-member case of the collection path.
func TestCachedAnswersIdenticalToCold(t *testing.T) {
	doc := xmarkDoc(t, 200, 7)
	one := cachedOne(t, doc, 64)
	q := MustParseQuery(`//item[./description/parlist and ./mailbox/mail/text]`)
	for _, algo := range []Algorithm{Hybrid, SSO, DPO} {
		for _, scheme := range []Scheme{StructureFirst, KeywordFirst, Combined} {
			for _, page := range []struct{ k, offset int }{{15, 0}, {5, 4}, {5, 1000}} {
				opts := SearchOptions{K: page.k, Offset: page.offset, Algorithm: algo, Scheme: scheme}
				name := fmt.Sprintf("%v/%v/k=%d/o=%d", algo, scheme, page.k, page.offset)
				coldOpts := opts
				coldOpts.NoCache = true
				direct, err := doc.Search(q, opts)
				if err != nil {
					t.Fatalf("%s direct: %v", name, err)
				}
				for i, o := range []SearchOptions{coldOpts, opts, opts} { // cold, miss, hit
					got, err := one.Search(q, o)
					if err != nil {
						t.Fatalf("%s one-member collection: %v", name, err)
					}
					if answers := plain(got); !reflect.DeepEqual(answers, direct) {
						t.Errorf("%s one-member collection search %d differs from the document's:\n%s\nvs\n%s",
							name, i, renderAnswers(answers, 0), renderAnswers(direct, 0))
					}
				}
			}
		}
	}
	// 27 searches: each primed once (miss) and hit once; NoCache runs
	// must not touch the cache at all.
	if st, ok := one.CacheStats(); !ok || st.Misses != 27 || st.Hits != 27 {
		t.Errorf("cache counters = %+v, want 27 misses / 27 hits", st)
	}
}

// TestDocumentsCacheNoResults: a document has no result cache.
// SetDocumentCaches does nothing, so after it neither collection searches
// nor direct searches give a member, pinned or faulted in from a
// snapshot, a result cache.
func TestDocumentsCacheNoResults(t *testing.T) {
	c := NewCollection()
	defer c.Close() //nolint:errcheck
	for _, m := range residencyCorpus(t, 2) {
		if err := c.AddSnapshotFile(m.name, m.path); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add("pinned", doc); err != nil {
		t.Fatal(err)
	}
	c.SetCache(8)
	c.SetDocumentCaches(8)
	q := MustParseQuery(paperQ1)
	for _, nc := range []bool{false, true, false} {
		if _, err := c.Search(q, SearchOptions{K: 5, NoCache: nc}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range c.Names() {
		d, _ := c.Document(name)
		for i := 0; i < 2; i++ {
			if _, err := d.Search(q, SearchOptions{K: 5}); err != nil {
				t.Fatal(err)
			}
		}
		if st, ok := d.CacheStats(); ok {
			t.Errorf("member %s reports a result cache: %+v", name, st)
		}
	}
	if st, ok := c.CacheStats(); !ok || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("collection cache counters = %+v ok=%v, want 1 hit / 1 miss", st, ok)
	}
}

// TestCacheHitNotPoisonedByCallerMutation is the regression test for
// the cache aliasing bug: cached results were handed to callers without
// copying the Relaxed explanation slices, so a caller mutating its
// answers silently rewrote the cache entry for every later hit. This is
// the one-member case of checkNotPoisoned.
func TestCacheHitNotPoisonedByCallerMutation(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	checkNotPoisoned(t, cachedOne(t, doc, 16))
}

// checkNotPoisoned searches c (with a result cache) three times with one
// Hybrid search, rewriting the Relaxed slices of the first two results,
// and fails unless every ranking is the first's.
func checkNotPoisoned(t *testing.T, c *Collection) {
	t.Helper()
	q := MustParseQuery(paperQ1)
	// Pinned: only the plan-based algorithms fill Relaxed.
	opts := SearchOptions{K: 3, Algorithm: Hybrid}
	want := ""
	for i, when := range []string{"miss", "hit", "second hit"} {
		got, err := c.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = renderAnswers(got, 0)
		} else if r := renderAnswers(got, 0); r != want {
			t.Fatalf("answers mutated by the caller poisoned the %s\nwant:\n%sgot:\n%s", when, want, r)
		}
		relaxed := false
		for _, a := range got {
			for j := range a.Relaxed {
				a.Relaxed[j] = "CLOBBERED"
				relaxed = true
			}
		}
		if !relaxed {
			t.Fatal("workload produced no relaxed answers; test exercises nothing")
		}
	}
}

func TestCacheKeySeparatesOptions(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	one := cachedOne(t, doc, 64)
	q := MustParseQuery(paperQ1)
	a2, err := one.Search(q, SearchOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	a3, err := one.Search(q, SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a2) != 2 || len(a3) != 3 {
		t.Fatalf("K confusion across cache entries: %d, %d", len(a2), len(a3))
	}
	// A different scheme must not collide either. The algorithm is pinned
	// because the byte-identity check covers Relaxed, which only the
	// plan-based algorithms populate.
	kw, err := one.Search(q, SearchOptions{K: 2, Scheme: KeywordFirst, Algorithm: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	kwCold, err := one.Search(q, SearchOptions{K: 2, Scheme: KeywordFirst, Algorithm: Hybrid, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if renderAnswers(kw, 0) != renderAnswers(kwCold, 0) {
		t.Error("scheme-specific entry polluted by other scheme")
	}
	if st, _ := one.CacheStats(); st.Entries != 3 {
		t.Errorf("entries = %d, want 3 distinct", st.Entries)
	}
}

func TestCachePaginationSharing(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	one := cachedOne(t, doc, 64)
	q := MustParseQuery(paperQ1)
	full, err := doc.Search(q, SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.Search(q, SearchOptions{K: 2, Offset: 1}); err != nil {
		t.Fatal(err)
	}
	page, err := one.Search(q, SearchOptions{K: 2, Offset: 1}) // hit
	if err != nil {
		t.Fatal(err)
	}
	if renderAnswers(plain(page), 0) != renderAnswers(full[1:], 0) {
		t.Errorf("cached page differs:\n%s\nvs\n%s", renderAnswers(plain(page), 0), renderAnswers(full[1:], 0))
	}
}

func TestCacheEviction(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	one := cachedOne(t, doc, 1)
	q := MustParseQuery(paperQ1)
	for k := 1; k <= 4; k++ {
		if _, err := one.Search(q, SearchOptions{K: k}); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := one.CacheStats()
	if st.Evictions == 0 {
		t.Errorf("no evictions in a capacity-1 cache: %+v", st)
	}
	if st.Entries > 1 {
		t.Errorf("capacity-1 cache holds %d entries", st.Entries)
	}
	// Post-eviction correctness: the evicted query re-evaluates cleanly.
	a, err := one.Search(q, SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || a[0].ID != "a1" {
		t.Errorf("post-eviction answer: %+v", a)
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	c := NewCollection()
	if _, ok := c.CacheStats(); ok {
		t.Error("cache reported enabled on a fresh collection")
	}
	c.SetCache(8)
	if _, ok := c.CacheStats(); !ok {
		t.Error("SetCache did not enable the cache")
	}
	c.SetCache(0)
	if _, ok := c.CacheStats(); ok {
		t.Error("SetCache(0) did not disable the cache")
	}
}

func TestCacheHitZeroesMetrics(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	one := cachedOne(t, doc, 8)
	q := MustParseQuery(paperQ1)
	var m Metrics
	if _, err := one.Search(q, SearchOptions{K: 3, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if m.QueriesEvaluated == 0 {
		t.Fatal("cold run reported no work")
	}
	if _, err := one.Search(q, SearchOptions{K: 3, Metrics: &m}); err != nil {
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
	checkNotPoisoned(t, c)
}
