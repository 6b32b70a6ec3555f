package flexpath

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"flexpath/internal/obs"
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

// After a mutation the collection cache must not serve the departed
// corpus, and the departing document's own caches are released.
func TestCollectionCacheInvalidatedOnMutation(t *testing.T) {
	c := testCollection(t)
	c.SetCache(16)
	q := MustParseQuery(paperQ1)
	if _, err := c.Search(q, SearchOptions{K: 10}); err != nil {
		t.Fatal(err)
	}
	old, _ := c.Document("a.xml")
	if fs := old.FullTextCacheStats(); fs.Entries == 0 {
		t.Fatalf("full-text cache not populated before remove: %+v", fs)
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
	if fs, ps := old.FullTextCacheStats(), old.pc.Stats(); fs.Entries != 0 || ps.Entries != 0 {
		t.Errorf("removed document's caches not purged: full text %+v, plans %+v", fs, ps)
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

// Concurrent searches and membership mutations must neither race (run
// under -race) nor corrupt the collection, and every search must see
// exactly one published membership.
func TestConcurrentMutateSearchStress(t *testing.T) {
	c := testCollection(t)
	c.SetCache(32)
	q := MustParseQuery(paperQ1)

	extraA, err := LoadString(collDocA)
	if err != nil {
		t.Fatal(err)
	}
	extraB, err := LoadString(collDocB)
	if err != nil {
		t.Fatal(err)
	}

	// Each mutator moves its extra name through absent, A and B: rank the
	// nine memberships the two can reach. Auto runs one algorithm on every
	// member, whatever the membership.
	opts := SearchOptions{K: 5}
	reachable := map[string]bool{}
	for _, docs := range [][2]*Document{{nil, nil}, {nil, extraA}, {nil, extraB},
		{extraA, nil}, {extraA, extraA}, {extraA, extraB},
		{extraB, nil}, {extraB, extraA}, {extraB, extraB}} {
		for m, d := range docs {
			if d != nil {
				if err := c.Add(fmt.Sprintf("extra%d.xml", m), d); err != nil {
					t.Fatal(err)
				}
			}
		}
		uncached := opts
		uncached.NoCache = true
		answers, err := c.Search(q, uncached)
		if err != nil {
			t.Fatal(err)
		}
		reachable[renderAnswers(answers, 0)] = true
		for m := range docs {
			if _, err := c.RemoveIfPresent(fmt.Sprintf("extra%d.xml", m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(reachable) != 9 {
		t.Fatalf("%d distinct rankings of the 9 reachable memberships", len(reachable))
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				answers, err := c.Search(q, opts)
				if err != nil {
					errc <- err
					return
				}
				if r := renderAnswers(answers, 0); !reachable[r] {
					errc <- fmt.Errorf("ranking of no published membership:\n%s", r)
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

// A search that straddles a mutation must not make the next search serve
// the pre-mutation ranking. The hook runs the mutation between the
// search's evaluation and its cache put: the entry it puts holds parts of
// the old corpus, and the next search must evaluate the members whose
// document is not in it.
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

// TestReplaceEvaluatesOneMember: the collection cache keeps each member's
// part, so after a warm Replace the next search evaluates the incoming
// document alone, and after a Remove it evaluates nothing.
func TestReplaceEvaluatesOneMember(t *testing.T) {
	c := pagingCollection(t)
	c.SetCache(16)
	q := MustParseQuery(paperQ1)
	opts := SearchOptions{K: 10, Algorithm: Hybrid}
	check := func(when string, wantMisses uint64) {
		t.Helper()
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
		if renderAnswers(got, 0) != renderAnswers(want, 0) {
			t.Errorf("%s: cached ranking differs from a cold one:\n%s\nvs\n%s",
				when, renderAnswers(got, 0), renderAnswers(want, 0))
		}
		if ps, _ := c.PlanCacheStats(); ps.Misses != wantMisses {
			t.Errorf("%s: %d plan-cache misses, want %d", when, ps.Misses, wantMisses)
		}
	}
	memberHits := func() map[string]uint64 {
		hits := map[string]uint64{}
		for _, name := range c.Names() {
			d, _ := c.Document(name)
			ps, _ := d.PlanCacheStats()
			hits[name] = ps.Hits
		}
		return hits
	}
	// A cached search and its cold twin: one template per member.
	check("warm-up", 4)
	before := memberHits()
	fresh, err := LoadString(`<journal><article id="r1"><section><algorithm>q</algorithm>
	  <paragraph>XML streaming replacement</paragraph></section></article></journal>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Replace("doc1.xml", fresh); err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if _, err := c.Search(q, SearchOptions{K: 10, Algorithm: Hybrid, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if ps, _ := c.PlanCacheStats(); ps.Misses != 5 || m.PlansRun != 1 {
		t.Errorf("after a replace %d plan-cache misses (want 5) and %d plans run (want 1)", ps.Misses, m.PlansRun)
	}
	after := memberHits()
	for name, h := range before {
		if name != "doc1.xml" && after[name] != h {
			t.Errorf("untouched member %s was evaluated (plan-cache hits %d -> %d)", name, h, after[name])
		}
	}
	check("after replace", 5)
	if err := c.Remove("doc2.xml"); err != nil {
		t.Fatal(err)
	}
	ps, _ := c.PlanCacheStats()
	if _, err := c.Search(q, SearchOptions{K: 10, Algorithm: Hybrid, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	if now, _ := c.PlanCacheStats(); now.Hits != ps.Hits || now.Misses != ps.Misses || m.PlansRun != 0 {
		t.Errorf("a search after a remove evaluated a member: plan cache %+v -> %+v, %d plans run", ps, now, m.PlansRun)
	}
	check("after remove", 5)
}

// counters snapshots every counter a collection exports as a Prometheus
// counter family.
func counters(c *Collection) map[string]uint64 {
	out := map[string]uint64{}
	add := func(prefix string, s CacheStats) {
		out[prefix+"hits"], out[prefix+"misses"], out[prefix+"evictions"] = s.Hits, s.Misses, s.Evictions
	}
	cs, _ := c.CacheStats()
	add("cache.", cs)
	add("ft_cache.", c.FullTextCacheStats())
	ps, _ := c.PlanCacheStats()
	out["plan_cache.hits"], out["plan_cache.misses"] = ps.Hits, ps.Misses
	out["plan_cache.evictions"], out["plan_cache.dedups"] = ps.Evictions, ps.Dedups
	return out
}

// TestCountersMonotonicAcrossMutations: the counters flexserve exports as
// Prometheus counters never go backwards, though Add, Replace and Remove
// change which documents' caches the sums cover.
func TestCountersMonotonicAcrossMutations(t *testing.T) {
	c := pagingCollection(t)
	c.SetCache(16)
	queries := []*Query{MustParseQuery(paperQ1), MustParseQuery(`//article[.contains("streaming")]`)}
	work := func() {
		for _, q := range queries {
			for _, k := range []int{2, 5} {
				if _, err := c.Search(q, SearchOptions{K: k}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	work()
	prev := counters(c)
	step := func(what string, mutate func() error) {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		for _, snap := range []string{"after " + what, "after " + what + " and searches"} {
			now := counters(c)
			for k, v := range prev {
				if now[k] < v {
					t.Errorf("%s: %s went backwards, %d -> %d", snap, k, v, now[k])
				}
			}
			prev = now
			work()
		}
	}
	fresh := func() *Document {
		d, err := LoadString(collDocA)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	step("add", func() error { return c.Add("extra.xml", fresh()) })
	step("replace", func() error { return c.Replace("doc0.xml", fresh()) })
	step("remove", func() error { return c.Remove("doc1.xml") })
	step("remove of a replacement", func() error { return c.Remove("doc0.xml") })
}

// TestSlowLogCacheHitAfterReplace: a search is logged as a cache hit only
// when no member was evaluated. The search after a Replace evaluates the
// incoming member and is a miss; the one after it is a hit.
func TestSlowLogCacheHitAfterReplace(t *testing.T) {
	c := pagingCollection(t)
	c.SetCache(16)
	q := MustParseQuery(paperQ1)
	cacheHit := func() bool {
		reg := obs.NewRegistry(1, 0)
		span := reg.StartSpan(q.String(), "Hybrid", "structure-first", 10)
		if _, err := c.SearchContext(obs.WithSpan(context.Background(), span), q, SearchOptions{K: 10, Algorithm: Hybrid}); err != nil {
			t.Fatal(err)
		}
		span.Finish("ok")
		return reg.SlowLog().Top(1)[0].CacheHit
	}
	if cacheHit() || !cacheHit() {
		t.Fatal("the first search must miss and the second hit")
	}
	fresh, err := LoadString(collDocA)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Replace("doc3.xml", fresh); err != nil {
		t.Fatal(err)
	}
	if cacheHit() {
		t.Error("the search after a replace evaluated a member but was logged as a cache hit")
	}
	if !cacheHit() {
		t.Error("the second search after a replace was not logged as a cache hit")
	}
}

// Every membership verb resolves in one place and fails with a typed
// error: Add and AddSnapshotFile on a taken name, Replace and Remove on a
// missing one. Upsert adds or replaces; RemoveIfPresent is a no-op on a
// missing name.
func TestCollectionMutationErrors(t *testing.T) {
	c := testCollection(t)
	defer c.Close() //nolint:errcheck
	d, err := LoadString(collDocA)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add("a.xml", d); !errors.Is(err, ErrDocumentExists) {
		t.Errorf("Add of a taken name: %v, want ErrDocumentExists", err)
	}
	snap := residencyCorpus(t, 1)[0].path
	if err := c.AddSnapshotFile("b.xml", snap); !errors.Is(err, ErrDocumentExists) {
		t.Errorf("AddSnapshotFile of a taken name: %v, want ErrDocumentExists", err)
	}
	if err := c.Replace("zzz", d); !errors.Is(err, ErrNoDocument) {
		t.Errorf("Replace of a missing name: %v, want ErrNoDocument", err)
	}
	if err := c.Remove("zzz"); !errors.Is(err, ErrNoDocument) {
		t.Errorf("Remove of a missing name: %v, want ErrNoDocument", err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after failed mutations, want 2", c.Len())
	}

	if err := c.Upsert("new.xml", d); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Document("new.xml"); !ok || got != d {
		t.Error("Upsert of an absent name did not add it")
	}
	e, err := LoadString(collDocB)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Upsert("a.xml", e); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Document("a.xml"); got != e {
		t.Error("Upsert of a present name did not replace it")
	}
	if names := c.Names(); !slices.Equal(names, []string{"a.xml", "b.xml", "new.xml"}) {
		t.Errorf("Names = %v: Upsert moved a replaced member", names)
	}
	for _, want := range []bool{true, false} {
		removed, err := c.RemoveIfPresent("new.xml")
		if err != nil || removed != want {
			t.Errorf("RemoveIfPresent = %v, %v; want %v, nil", removed, err, want)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// Upsert and RemoveIfPresent of one name from many goroutines never fail:
// each resolves and applies as one step under the collection's lock.
func TestUpsertRemoveIfPresentConcurrent(t *testing.T) {
	c := testCollection(t)
	d, err := LoadString(collDocA)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, ops, rounds = 8, 300, 5
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					var err error
					if (g+i)%2 == 0 {
						err = c.Upsert("x.xml", d)
					} else {
						_, err = c.RemoveIfPresent("x.xml")
					}
					if err != nil {
						t.Errorf("round %d: %v", round, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
	if n := c.Len(); n < 2 || n > 3 {
		t.Errorf("Len = %d, want 2 or 3", n)
	}
}

// The same *Document under two names is one document: its plan cache is
// counted once, and removing one name neither purges the caches the other
// name still uses nor moves their counters to the departed sums.
func TestAliasedDocumentCountedOnce(t *testing.T) {
	d, err := LoadString(collDocA)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection()
	if err := c.Add("a", d); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("b", d); err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	opts := SearchOptions{K: 10, Algorithm: Hybrid, NoCache: true}
	if _, err := c.Search(q, opts); err != nil {
		t.Fatal(err)
	}
	own, _ := d.PlanCacheStats()
	if got, _ := c.PlanCacheStats(); got != own {
		t.Errorf("PlanCacheStats = %+v, want the one document's %+v", got, own)
	}

	if err := c.Remove("a"); err != nil {
		t.Fatal(err)
	}
	after, _ := c.PlanCacheStats()
	if after != own {
		t.Errorf("after removing one name: PlanCacheStats = %+v, want %+v", after, own)
	}
	if _, err := c.Search(q, opts); err != nil {
		t.Fatal(err)
	}
	if now, _ := c.PlanCacheStats(); now.Misses != after.Misses {
		t.Errorf("the remaining name rebuilt its template: misses %d -> %d", after.Misses, now.Misses)
	}
}
