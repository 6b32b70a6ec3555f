package flexpath

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSearchStress hammers one shared Document (with a result
// cache) and one shared Collection from many goroutines running a mix of
// queries, algorithms and schemes, and checks every result against a
// sequentially precomputed expectation. Run under -race this covers the
// cache shards, the chain cache, and the collection worker pool.
func TestConcurrentSearchStress(t *testing.T) {
	doc := xmarkDoc(t, 120, 11)
	doc.SetCache(32)

	coll := NewCollection()
	for i := 0; i < 4; i++ {
		if err := coll.Add(fmt.Sprintf("d%d.xml", i), xmarkDoc(t, 40, int64(20+i))); err != nil {
			t.Fatal(err)
		}
	}
	coll.SetCache(32)
	coll.SetDocumentCaches(16)

	queries := []*Query{
		MustParseQuery(`//item[./description/parlist]`),
		MustParseQuery(`//item[./description/parlist and ./mailbox/mail/text]`),
		MustParseQuery(`//item[./name and ./incategory]`),
	}
	algos := []Algorithm{Hybrid, SSO, DPO}
	schemes := []Scheme{StructureFirst, Combined}

	type combo struct {
		qi, ai, si int
	}
	var combos []combo
	wantDoc := map[combo]string{}
	wantColl := map[combo]string{}
	for qi := range queries {
		for ai := range algos {
			for si := range schemes {
				cb := combo{qi, ai, si}
				combos = append(combos, cb)
				opts := SearchOptions{K: 8, Algorithm: algos[ai], Scheme: schemes[si]}
				da, err := doc.Search(queries[qi], opts)
				if err != nil {
					t.Fatal(err)
				}
				wantDoc[cb] = renderAnswers(da, 0)
				ca, err := coll.Search(queries[qi], opts)
				if err != nil {
					t.Fatal(err)
				}
				wantColl[cb] = renderAnswers(ca, 0)
			}
		}
	}

	const goroutines = 16
	const iters = 30
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cb := combos[(g*7+i)%len(combos)]
				opts := SearchOptions{K: 8, Algorithm: algos[cb.ai], Scheme: schemes[cb.si]}
				// Odd iterations bypass the caches so cached and
				// uncached evaluations race against each other.
				opts.NoCache = i%2 == 1
				if g%2 == 0 {
					a, err := doc.SearchContext(context.Background(), queries[cb.qi], opts)
					if err != nil {
						errCh <- err
						return
					}
					if got := renderAnswers(a, 0); got != wantDoc[cb] {
						errCh <- fmt.Errorf("goroutine %d: document ranking diverged for %+v", g, cb)
						return
					}
				} else {
					a, err := coll.SearchContext(context.Background(), queries[cb.qi], opts)
					if err != nil {
						errCh <- err
						return
					}
					if got := renderAnswers(a, 0); got != wantColl[cb] {
						errCh <- fmt.Errorf("goroutine %d: collection ranking diverged for %+v", g, cb)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestCollectionParallelMatchesSequential verifies the tentpole
// determinism contract: the merged ranking is byte-identical at every
// worker count.
func TestCollectionParallelMatchesSequential(t *testing.T) {
	coll := NewCollection()
	for i := 0; i < 8; i++ {
		if err := coll.Add(fmt.Sprintf("d%d.xml", i), xmarkDoc(t, 30, int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	queries := []*Query{
		MustParseQuery(`//item[./description/parlist]`),
		MustParseQuery(`//item[./description/parlist and ./mailbox/mail/text]`),
	}
	for _, q := range queries {
		for _, algo := range []Algorithm{Hybrid, SSO, DPO} {
			var want string
			for _, workers := range []int{1, 2, 3, 8, 0} {
				var m Metrics
				a, err := coll.Search(q, SearchOptions{
					K: 12, Algorithm: algo, Workers: workers, Metrics: &m,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := renderAnswers(a, 0)
				if workers == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%v workers=%d: ranking differs from sequential\n%s\nvs\n%s",
						algo, workers, got, want)
				}
				if m.PlansRun == 0 && m.QueriesEvaluated == 0 {
					t.Errorf("%v workers=%d: metrics empty", algo, workers)
				}
			}
		}
	}
}

func TestSearchContextPreCancelled(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := MustParseQuery(paperQ1)
	if _, err := doc.SearchContext(ctx, q, SearchOptions{K: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("document search on cancelled ctx: err = %v", err)
	}
	c := testCollection(t)
	if _, err := c.SearchContext(ctx, q, SearchOptions{K: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("collection search on cancelled ctx: err = %v", err)
	}
}

func TestSearchContextExpiredDeadline(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, algo := range []Algorithm{Auto, Hybrid, SSO, DPO} {
		_, err := doc.SearchContext(ctx, MustParseQuery(paperQ1), SearchOptions{K: 3, Algorithm: algo})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%v: err = %v, want deadline exceeded", algo, err)
		}
	}
}

// TestSearchContextTimeoutMidRun checks that a deadline firing while the
// join loops are running aborts the search promptly instead of letting
// it run to completion. The workload is sized so evaluation normally
// takes far longer than the timeout; if the machine finishes it inside
// the deadline anyway, the test has nothing to observe and passes.
func TestSearchContextTimeoutMidRun(t *testing.T) {
	doc := xmarkDoc(t, 600, 13)
	q := MustParseQuery(`//item[./description/parlist/listitem and ` +
		`./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]`)
	// Warm the relaxation chain so the timeout lands in evaluation.
	if _, err := doc.Search(q, SearchOptions{K: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := doc.SearchContext(ctx, q, SearchOptions{K: 600, Algorithm: DPO, Scheme: KeywordFirst})
	elapsed := time.Since(start)
	if err == nil {
		t.Logf("search completed inside the %v deadline; nothing to observe", 2*time.Millisecond)
		return
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// Generous bound: cancellation is polled every join step and every
	// 64 tuples, so an aborted search must return well under a second.
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// TestSearchContextBackgroundUnaffected pins the zero-cost path: a
// background context must not change results.
func TestSearchContextBackgroundUnaffected(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	plain, err := doc.Search(q, SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := doc.SearchContext(context.Background(), q, SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if renderAnswers(plain, 0) != renderAnswers(withCtx, 0) {
		t.Error("background context changed the ranking")
	}
}

// TestSharedQueryConcurrentSearch: one parsed Query, whose relaxation
// shape every document's chain build shares, searched from several
// goroutines at once over documents with different statistics, ranks
// every document exactly as a freshly parsed copy of the query does
// (run it under -race). The twelve-node query orders its penalties
// differently per document, so its skeletons are computed concurrently;
// the others share one.
func TestSharedQueryConcurrentSearch(t *testing.T) {
	var docs []*Document
	for i := 0; i < 4; i++ {
		docs = append(docs, xmarkDoc(t, 60+20*i, int64(300+i)))
	}
	for _, src := range []string{
		`//item[./name and ./description[.contains("gold" or "vintage")]]`,
		`//open_auction[./bidder/date and ./annotation/description[.contains("walnut")]]`,
		`//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]`,
	} {
		for _, algo := range []Algorithm{DPO, Hybrid} {
			opts := SearchOptions{K: 10, Algorithm: algo, NoCache: true}
			want := make([]string, len(docs))
			for i, d := range docs {
				a, err := d.Search(MustParseQuery(src), opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) == 0 {
					t.Fatalf("%s %v doc %d: no answers", src, algo, i)
				}
				want[i] = renderAnswers(a, 0)
				d.pc.Purge()
			}
			shared := MustParseQuery(src)
			var wg sync.WaitGroup
			for g := 0; g < 2*len(docs); g++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					a, err := docs[i].Search(shared, opts)
					if err != nil {
						t.Error(err)
						return
					}
					if got := renderAnswers(a, 0); got != want[i] {
						t.Errorf("%s %v doc %d: shared query ranks\n%s\nfresh query\n%s", src, algo, i, got, want[i])
					}
				}(g % len(docs))
			}
			wg.Wait()
			for _, d := range docs {
				d.pc.Purge()
			}
		}
	}
}
