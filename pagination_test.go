package flexpath

import (
	"fmt"
	"testing"
)

// pagingCollection builds a corpus where the global ranking interleaves
// documents, so any per-document offset handling is observable.
func pagingCollection(t *testing.T) *Collection {
	t.Helper()
	c := NewCollection()
	for d := 0; d < 4; d++ {
		// Three articles per document at varying relaxation depths: one
		// exact match, one missing the algorithm, one missing the
		// paragraph terms.
		xml := fmt.Sprintf(`<journal>
  <article id="d%[1]d-exact"><section><algorithm>x</algorithm>
    <paragraph>XML streaming methods</paragraph></section></article>
  <article id="d%[1]d-noalgo"><section>
    <paragraph>XML streaming text</paragraph></section></article>
  <article id="d%[1]d-noterms"><section><algorithm>y</algorithm>
    <paragraph>unrelated prose</paragraph></section></article>
</journal>`, d)
		doc, err := LoadString(xml)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Add(fmt.Sprintf("doc%d.xml", d), doc); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func collAnswerKey(a CollectionAnswer) string {
	return fmt.Sprintf("%s/%s/%s/%d/%g/%g", a.DocName, a.Path, a.ID, a.Relaxations, a.Structural, a.Keyword)
}

// Regression: Collection searches used to forward Offset to every member
// document, so each document dropped its *own* top-Offset answers before
// the merge — with Offset=o over n documents, up to n*o wrong answers
// were skipped. Pagination must instead window the merged global ranking:
// page (Offset=o, K=k) equals ranks o..o+k of the unpaged ranking.
func TestCollectionGlobalPagination(t *testing.T) {
	c := pagingCollection(t)
	q := MustParseQuery(paperQ1)

	// Sanity: the corpus produces a multi-document interleaved ranking
	// (the exact and no-algorithm articles are admitted in every
	// document), so per-document offset handling is observable.
	if full, err := c.Search(q, SearchOptions{K: 100}); err != nil {
		t.Fatal(err)
	} else if len(full) < 8 {
		t.Fatalf("full ranking has %d answers, want at least 8", len(full))
	}

	for _, tc := range []struct{ offset, k int }{
		{1, 3}, {2, 5}, {3, 4}, {5, 3}, {7, 4}, {10, 5}, {20, 3},
	} {
		// The page (Offset=o, K=k) must equal ranks o..o+k of the
		// unpaged ranking evaluated at the same depth K=o+k (answer
		// scores depend on the evaluated K: the estimator encodes
		// relaxations per requested depth). The algorithm is pinned
		// because DPO and SSO accumulate float penalties in different
		// orders, so their scores differ by an ulp and Auto may pick
		// either.
		full, err := c.Search(q, SearchOptions{K: tc.offset + tc.k, Algorithm: SSO})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Search(q, SearchOptions{K: tc.k, Offset: tc.offset, Algorithm: SSO})
		if err != nil {
			t.Fatal(err)
		}
		want := []CollectionAnswer{}
		if tc.offset < len(full) {
			want = full[tc.offset:]
		}
		if len(got) != len(want) {
			t.Errorf("offset=%d k=%d: got %d answers, want %d", tc.offset, tc.k, len(got), len(want))
			continue
		}
		for i := range got {
			if collAnswerKey(got[i]) != collAnswerKey(want[i]) {
				t.Errorf("offset=%d k=%d rank %d: got %s, want %s",
					tc.offset, tc.k, i, collAnswerKey(got[i]), collAnswerKey(want[i]))
			}
		}
	}
}

// Paged and unpaged searches must agree when served through caches too:
// the collection cache keys on (K, Offset) and each member document is
// asked for the same Offset+K prefix regardless of the page.
func TestCollectionPaginationWithCaches(t *testing.T) {
	c := pagingCollection(t)
	c.SetCache(32)
	q := MustParseQuery(paperQ1)

	full, err := c.Search(q, SearchOptions{K: 7, NoCache: true, Algorithm: SSO})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ { // the second round keeps the entry, the third is cache-served
		got, err := c.Search(q, SearchOptions{K: 4, Offset: 3, Algorithm: SSO})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 {
			t.Fatalf("round %d: got %d answers, want 4", round, len(got))
		}
		for i := range got {
			if collAnswerKey(got[i]) != collAnswerKey(full[3+i]) {
				t.Errorf("round %d rank %d: got %s, want %s",
					round, i, collAnswerKey(got[i]), collAnswerKey(full[3+i]))
			}
		}
	}
}
