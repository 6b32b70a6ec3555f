package flexpath

import (
	"fmt"
	"sync"
	"testing"
)

// Remove drops a member: accessors forget it and searches stop covering
// it, while in-flight holders of the *Document stay valid.
func TestCollectionRemove(t *testing.T) {
	c := testCollection(t)
	if err := c.Remove("zzz"); err == nil {
		t.Error("removing a phantom document succeeded")
	}
	if err := c.Remove("a.xml"); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after remove, want 1", c.Len())
	}
	if _, ok := c.Document("a.xml"); ok {
		t.Error("removed document still resolvable")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "b.xml" {
		t.Errorf("Names = %v", names)
	}
	answers, err := c.Search(MustParseQuery(paperQ1), SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		if a.DocName == "a.xml" {
			t.Errorf("answer from removed document: %+v", a)
		}
	}
	if err := c.Remove("a.xml"); err == nil {
		t.Error("double remove succeeded")
	}
}

// Replace swaps the document behind a name in place.
func TestCollectionReplace(t *testing.T) {
	c := testCollection(t)
	repl, err := LoadString(`<journal><article id="new1"><section><algorithm>z</algorithm>
	  <paragraph>XML streaming rewrite</paragraph></section></article></journal>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Replace("zzz", repl); err == nil {
		t.Error("replacing a phantom document succeeded")
	}
	if err := c.Replace("a.xml", repl); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d after replace, want 2", c.Len())
	}
	got, ok := c.Document("a.xml")
	if !ok || got != repl {
		t.Fatal("a.xml does not resolve to the replacement document")
	}
	answers, err := c.Search(MustParseQuery(paperQ1), SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	seenNew := false
	for _, a := range answers {
		if a.DocName == "a.xml" {
			if a.ID == "j1" {
				t.Error("answer from the replaced (old) document content")
			}
			if a.ID == "new1" {
				seenNew = true
			}
		}
	}
	if !seenNew {
		t.Error("replacement document contributed no answers")
	}
}

// Mutations must invalidate the collection cache (a cached merged ranking
// covers a corpus that no longer exists) and the departing document's own
// cache.
func TestCollectionCacheInvalidatedOnMutation(t *testing.T) {
	c := testCollection(t)
	c.SetCache(16)
	c.SetDocumentCaches(16)
	q := MustParseQuery(paperQ1)
	if _, err := c.Search(q, SearchOptions{K: 10}); err != nil {
		t.Fatal(err)
	}
	old, _ := c.Document("a.xml")
	if cs, ok := old.CacheStats(); !ok || cs.Entries == 0 {
		t.Fatalf("document cache not populated before remove: %+v", cs)
	}
	if err := c.Remove("a.xml"); err != nil {
		t.Fatal(err)
	}
	// The stale merged ranking must not be served.
	answers, err := c.Search(q, SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		if a.DocName == "a.xml" {
			t.Errorf("cache served an answer from a removed document: %+v", a)
		}
	}
	// The departed document's cache entries are released.
	if cs, ok := old.CacheStats(); !ok || cs.Entries != 0 {
		t.Errorf("removed document's cache not purged: %+v", cs)
	}

	// Replace likewise: the old ranking for b.xml must not survive.
	repl, err := LoadString(`<proceedings><article id="r1"><section><algorithm>q</algorithm>
	  <paragraph>XML streaming replacement</paragraph></section></article></proceedings>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Replace("b.xml", repl); err != nil {
		t.Fatal(err)
	}
	answers, err = c.Search(q, SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		if a.DocName == "b.xml" && a.ID != "r1" {
			t.Errorf("cache served stale content for replaced document: %+v", a)
		}
	}
}

// Regression: SetDocumentCaches used to configure only the documents
// present at call time, so later Adds silently ran uncached and
// DocumentCacheStats underreported the live corpus.
func TestDocumentCachesApplyToLateAdds(t *testing.T) {
	c := NewCollection()
	a, err := LoadString(collDocA)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add("a.xml", a); err != nil {
		t.Fatal(err)
	}
	c.SetDocumentCaches(16)

	late, err := LoadString(collDocB)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add("late.xml", late); err != nil {
		t.Fatal(err)
	}
	if _, ok := late.CacheStats(); !ok {
		t.Fatal("document added after SetDocumentCaches has no cache")
	}
	q := MustParseQuery(paperQ1)
	for i := 0; i < 2; i++ {
		if _, err := c.Search(q, SearchOptions{K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	ds, ok := c.DocumentCacheStats()
	if !ok {
		t.Fatal("no document cache stats")
	}
	// Both members served the second search from cache.
	if ds.Hits != 2 || ds.Misses != 2 {
		t.Errorf("doc cache counters = %+v, want 2 hits / 2 misses across both members", ds)
	}

	// Replace applies the remembered configuration too.
	repl, err := LoadString(collDocB)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Replace("late.xml", repl); err != nil {
		t.Fatal(err)
	}
	if _, ok := repl.CacheStats(); !ok {
		t.Error("document swapped in by Replace has no cache")
	}

	// An explicit disable applies to future members as well.
	c.SetDocumentCaches(0)
	another, err := LoadString(collDocA)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add("another.xml", another); err != nil {
		t.Fatal(err)
	}
	if _, ok := another.CacheStats(); ok {
		t.Error("document added after disabling caches got one anyway")
	}
}

// Concurrent searches and membership mutations must neither race (run
// under -race) nor corrupt the collection.
func TestConcurrentMutateSearchStress(t *testing.T) {
	c := testCollection(t)
	c.SetCache(32)
	c.SetDocumentCaches(8)
	q := MustParseQuery(paperQ1)

	extraA, err := LoadString(collDocA)
	if err != nil {
		t.Fatal(err)
	}
	extraB, err := LoadString(collDocB)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.Search(q, SearchOptions{K: 5}); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			name := fmt.Sprintf("extra%d.xml", m)
			for i := 0; i < 30; i++ {
				if err := c.Add(name, extraA); err != nil {
					errc <- err
					return
				}
				if err := c.Replace(name, extraB); err != nil {
					errc <- err
					return
				}
				if err := c.Remove(name); err != nil {
					errc <- err
					return
				}
			}
		}(m)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d after stress, want 2", c.Len())
	}
	if _, err := c.Search(q, SearchOptions{K: 5}); err != nil {
		t.Errorf("search after stress: %v", err)
	}
}

// A search that straddles a mutation must not re-insert its pre-mutation
// ranking after the mutation purged the cache: the next search has to see
// the new corpus. The hook runs the mutation between the search's
// evaluation and its cache put — the window the generation stamp closes.
func TestStalePutAfterPurge(t *testing.T) {
	repl, err := LoadString(`<journal><article id="new1"><section><algorithm>z</algorithm>
	  <paragraph>XML streaming rewrite</paragraph></section></article></journal>`)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	opts := SearchOptions{K: 10}
	for _, mutate := range []struct {
		name string
		do   func(c *Collection) error
	}{
		{"replace", func(c *Collection) error { return c.Replace("a.xml", repl) }},
		{"remove", func(c *Collection) error { return c.Remove("a.xml") }},
		{"add", func(c *Collection) error { return c.Add("c.xml", repl) }},
	} {
		t.Run(mutate.name, func(t *testing.T) {
			c := testCollection(t)
			c.SetCache(16)
			c.beforePut = func() {
				c.beforePut = nil
				if err := mutate.do(c); err != nil {
					t.Error(err)
				}
			}
			// Concurrent readers keep the race detector looking at the
			// generation and the cache while the straddling search runs.
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := c.Search(q, SearchOptions{K: 5, NoCache: true}); err != nil {
						t.Error(err)
					}
				}()
			}
			if _, err := c.Search(q, opts); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if cs, _ := c.CacheStats(); cs.Entries != 0 {
				t.Fatalf("straddling search left %d cache entries behind the purge", cs.Entries)
			}
			got, err := c.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			nc := opts
			nc.NoCache = true
			want, err := c.Search(q, nc)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("search after the mutation returned the stale ranking:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// The per-document cache has the same window: a document that left its
// collection (purgeCache) must not be re-populated by a search that was
// already evaluating against it.
func TestDocumentStalePutAfterPurge(t *testing.T) {
	d, err := LoadString(collDocA)
	if err != nil {
		t.Fatal(err)
	}
	d.SetCache(16)
	d.beforeCachePut = func() {
		d.beforeCachePut = nil
		d.purgeCache()
	}
	if _, err := d.Search(MustParseQuery(paperQ1), SearchOptions{K: 10}); err != nil {
		t.Fatal(err)
	}
	if cs, _ := d.CacheStats(); cs.Entries != 0 {
		t.Fatalf("straddling search left %d entries in the purged document cache", cs.Entries)
	}
}
