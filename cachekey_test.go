package flexpath

import "testing"

// Regression: hierarchyKey/searchCacheKey used to join user-controlled
// names with bare '>'/';' separators, so adversarial tag or hierarchy
// names could alias two distinct searches onto one cache entry (the
// second search would be served the first one's ranking). The encoding
// is now length-prefixed, hence injective.
func TestHierarchyKeyCollisionResistance(t *testing.T) {
	cases := []struct {
		name string
		a, b map[string]string
	}{
		{
			// One pair whose subtype embeds the pair separator vs. a
			// genuine two-pair map: both rendered "a>b;c>d" before.
			name: "pair separator in name",
			a:    map[string]string{"a": "b;c>d"},
			b:    map[string]string{"a": "b", "c": "d"},
		},
		{
			// '>' inside the tag vs. inside the supertype: both rendered
			// "a>b>c" before.
			name: "edge separator in name",
			a:    map[string]string{"a>b": "c"},
			b:    map[string]string{"a": "b>c"},
		},
		{
			name: "boundary shift",
			a:    map[string]string{"ab": "c"},
			b:    map[string]string{"a": "b>c"},
		},
	}
	for _, tc := range cases {
		ka, kb := hierarchyKey(tc.a), hierarchyKey(tc.b)
		if ka == kb {
			t.Errorf("%s: hierarchies %v and %v share key %q", tc.name, tc.a, tc.b, ka)
		}
	}
}

func TestSearchCacheKeyCollisionResistance(t *testing.T) {
	q := MustParseQuery(`//article[./section]`)
	k1 := searchCacheKey(q, SearchOptions{K: 10, Hierarchy: map[string]string{"a": "b;c>d"}})
	k2 := searchCacheKey(q, SearchOptions{K: 10, Hierarchy: map[string]string{"a": "b", "c": "d"}})
	if k1 == k2 {
		t.Errorf("distinct searches share cache key %q", k1)
	}
	// End-to-end: with a colliding key, the second search would be served
	// the first hierarchy's cached ranking.
	doc, err := LoadString(collDocA)
	if err != nil {
		t.Fatal(err)
	}
	one := cachedOne(t, doc, 16)
	h1 := map[string]string{"a": "b;c>d"}
	h2 := map[string]string{"a": "b", "c": "d"}
	for _, h := range []map[string]string{h1, h1, h2} { // h1's second search keeps its entry
		if _, err := one.Search(q, SearchOptions{K: 5, Hierarchy: h}); err != nil {
			t.Fatal(err)
		}
	}
	cs, ok := one.CacheStats()
	if !ok {
		t.Fatal("no cache stats")
	}
	if cs.Misses != 3 || cs.Hits != 0 {
		t.Errorf("cache counters = %+v: distinct hierarchies must not share an entry", cs)
	}
}
