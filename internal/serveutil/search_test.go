package serveutil

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"flexpath"
	"flexpath/internal/lru"
)

// freshMemo gives the test an empty query memo and restores the shared
// one afterwards.
func freshMemo(t *testing.T) {
	t.Helper()
	saved := queries
	queries = lru.New[*flexpath.Query](queryMemoCapacity)
	t.Cleanup(func() { queries = saved })
}

func parseQ(t *testing.T, src string) *flexpath.Query {
	t.Helper()
	s, err := ParseSearch(url.Values{"q": {src}})
	if err != nil {
		t.Fatalf("ParseSearch(%q): %v", src, err)
	}
	return s.Query
}

// A repeated q text is parsed once it is kept: the memo keeps a text on
// its second sighting, and every later request gets the same immutable
// *Query; different texts get different ones.
func TestParseSearchMemoizesQuery(t *testing.T) {
	freshMemo(t)
	a := `//item[./description/parlist]`
	b := `//item[./name and .contains("gold")]`
	parseQ(t, a) // first sightings: parsed, not kept
	parseQ(t, b)
	qa, qb := parseQ(t, a), parseQ(t, b)
	if parseQ(t, a) != qa || parseQ(t, b) != qb {
		t.Error("a repeated text was parsed again")
	}
	if qa == qb {
		t.Error("two texts share one parsed query")
	}
	if got := qa.String(); got != flexpath.MustParseQuery(a).String() {
		t.Errorf("memoized query renders %q", got)
	}
	if s := queries.Stats(); s.Misses != 4 || s.Hits != 2 || s.Entries != 2 {
		t.Errorf("memo stats %+v, want 4 misses, 2 hits, 2 entries", s)
	}
}

// A parse error is answered every time and never stored.
func TestParseSearchMemoSkipsErrors(t *testing.T) {
	freshMemo(t)
	for range 3 {
		if _, err := ParseSearch(url.Values{"q": {"//item[./name"}}); err == nil {
			t.Fatal("malformed query accepted")
		}
	}
	if s := queries.Stats(); s.Entries != 0 || s.Misses != 3 {
		t.Errorf("memo stats %+v after three parse errors, want 0 entries and 3 misses", s)
	}
}

// A text longer than maxMemoText is parsed on every request and never
// stored.
func TestParseSearchLongTextNotMemoized(t *testing.T) {
	freshMemo(t)
	long := `//item[./name and .contains("` + strings.Repeat("w", maxMemoText) + `")]`
	if parseQ(t, long) == parseQ(t, long) {
		t.Error("a text longer than maxMemoText was memoized")
	}
	if s := queries.Stats(); s.Entries != 0 || s.Misses != 0 {
		t.Errorf("memo stats %+v, want it untouched", s)
	}
}

// The memo is bounded: after twice its capacity of distinct texts, each
// asked twice so that it is kept, it holds exactly its capacity.
func TestParseSearchMemoBounded(t *testing.T) {
	freshMemo(t)
	for i := range 2 * queryMemoCapacity {
		text := fmt.Sprintf("//item[./name and .contains(%q)]", fmt.Sprint("w", i))
		parseQ(t, text)
		parseQ(t, text)
	}
	if s := queries.Stats(); s.Entries != queryMemoCapacity || s.Evictions != queryMemoCapacity {
		t.Errorf("memo stats %+v, want %d entries and evictions", s, queryMemoCapacity)
	}
}

// Concurrent requests for the same texts share one parse each (run
// under -race). Each text is sighted once first, so its next parse is
// kept.
func TestParseSearchMemoConcurrent(t *testing.T) {
	freshMemo(t)
	texts := []string{`//a[./b]`, `//a[.//c]`, `//a[./b and .contains("x")]`}
	for _, text := range texts {
		parseQ(t, text)
	}
	got := make([][]*flexpath.Query, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				s, err := ParseSearch(url.Values{"q": {texts[i%len(texts)]}, "k": {"5"}})
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], s.Query)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, q := range got[g] {
			if q != got[0][i%len(texts)] {
				t.Fatalf("goroutine %d, request %d: text %q parsed twice", g, i, texts[i%len(texts)])
			}
		}
	}
}

// A response is one line of JSON that decodes back to what was written.
func TestWriteJSONCompact(t *testing.T) {
	in := SearchResponse{
		Query: `//item[./name]`, Algo: "DPO", AlgoReason: "default",
		Answers: []Answer{
			{Rank: 1, Doc: "a.xml", Path: "/site/item[1]", ID: "i1", Structural: 2.5, Keyword: 0.1234567890123, Relaxations: 1, Relaxed: []string{"drop name"}},
			{Rank: 2, Doc: "b.xml", Path: "/site/item[2]", Structural: 1, Snippet: "<gold> & \"silver\"\n"},
		},
		ElapsedMS: 0.25,
	}
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, in)
	body := rec.Body.String()
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if strings.Count(body, "\n") != 1 || !strings.HasSuffix(body, "\n") {
		t.Errorf("body is not one line:\n%s", body)
	}
	var out SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("decoded %+v, wrote %+v", out, in)
	}
}
