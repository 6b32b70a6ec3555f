package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"flexpath"
	"flexpath/internal/obs"
	"flexpath/internal/serveutil"
)

// testShard serves flexserve's /search contract over a real
// flexpath.Collection (cmd/flexserve is package main, so its handler
// cannot be imported; this one shares its request rules and answer
// encoding through serveutil). It records every request's query values
// for propagation assertions.
type testShard struct {
	coll *flexpath.Collection
	mu   sync.Mutex
	reqs []url.Values
}

func (s *testShard) requests() []url.Values {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]url.Values(nil), s.reqs...)
}

func (s *testShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/search" {
		http.NotFound(w, r)
		return
	}
	qs := r.URL.Query()
	s.mu.Lock()
	s.reqs = append(s.reqs, qs)
	s.mu.Unlock()
	req, err := serveutil.ParseSearch(qs)
	if err != nil {
		serveutil.WriteJSON(w, http.StatusBadRequest, serveutil.ErrorBody{Error: err.Error()})
		return
	}
	var m flexpath.Metrics
	req.Opts.Metrics = &m
	answers, err := s.coll.Search(req.Query, req.Opts)
	if err != nil {
		serveutil.WriteJSON(w, http.StatusInternalServerError, serveutil.ErrorBody{Error: err.Error()})
		return
	}
	serveutil.WriteJSON(w, http.StatusOK, serveutil.SearchResponse{
		Query: req.Query.String(), Algo: m.Algorithm, Answers: req.Answers(answers),
	})
}

// encodeAnswers renders collection answers exactly like flexserve's
// search handler does.
func encodeAnswers(answers []flexpath.CollectionAnswer, why bool, snippet int) []serveutil.Answer {
	return serveutil.Search{Why: why, Snippet: snippet}.Answers(answers)
}

// corpusDoc builds one article document's XML; shape varies with kind so
// the corpus ranks at several relaxation levels.
func corpusDoc(id string, kind int) string {
	switch kind % 3 {
	case 0: // exact match
		return fmt.Sprintf(`<journal><article id=%q><section><algorithm>x</algorithm>
  <paragraph>XML streaming methods</paragraph></section></article></journal>`, id)
	case 1: // missing algorithm child
		return fmt.Sprintf(`<journal><article id=%q><section>
  <paragraph>XML streaming text</paragraph></section></article></journal>`, id)
	default: // missing the query terms
		return fmt.Sprintf(`<journal><article id=%q><section><algorithm>y</algorithm>
  <paragraph>unrelated prose</paragraph></section></article></journal>`, id)
	}
}

const corpusQuery = `//article[./section[./paragraph and .contains("XML" and "streaming")]]`

func standardCorpus() map[string]string {
	docs := map[string]string{}
	for i := 0; i < 6; i++ {
		docs[fmt.Sprintf("doc%d.xml", i)] = corpusDoc(fmt.Sprintf("d%d", i), i)
	}
	return docs
}

func mustAdd(t *testing.T, c *flexpath.Collection, name, xml string) {
	t.Helper()
	doc, err := flexpath.LoadString(xml)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(name, doc); err != nil {
		t.Fatal(err)
	}
}

func sortedNames(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// routerFixture is a 3-shard fleet plus a single-node collection over
// the union corpus (each side parses its own copy of the XML).
type routerFixture struct {
	rt     *router
	srv    *httptest.Server
	shards []*testShard
	union  *flexpath.Collection
}

// startRouter splits docs across 3 shards (doc i on shard i%3, names in
// sorted order) and builds a router over them plus the single-node
// reference collection.
func startRouter(t *testing.T, cfg routerConfig, docs map[string]string) *routerFixture {
	t.Helper()
	f := &routerFixture{union: flexpath.NewCollection()}
	var urls []string
	for i := 0; i < 3; i++ {
		sh := &testShard{coll: flexpath.NewCollection()}
		srv := httptest.NewServer(sh)
		t.Cleanup(srv.Close)
		f.shards = append(f.shards, sh)
		urls = append(urls, srv.URL)
	}
	for i, name := range sortedNames(docs) {
		mustAdd(t, f.shards[i%3].coll, name, docs[name])
		mustAdd(t, f.union, name, docs[name])
	}
	rt, err := newRouter(urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	f.srv = httptest.NewServer(rt)
	t.Cleanup(f.srv.Close)
	return f
}

func getJSON(t *testing.T, url string, v interface{}) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, body)
		}
	}
	return resp, body
}

func escape(s string) string { return url.QueryEscape(s) }

// The distributed invariant: a router response over a sharded corpus is
// byte-identical (answer for answer) to a single-node Collection.Search
// over the union corpus, across k, offset, scheme, why, snippet and
// predicate weights.
func TestRouterMatchesSingleNode(t *testing.T) {
	f := startRouter(t, routerConfig{shardTimeout: 10 * time.Second}, standardCorpus())
	for _, tc := range []struct {
		k, offset int
		scheme    string
		why       bool
		snippet   int
		ws, wc    float64
	}{
		{1, 0, "", false, 0, 0, 0},
		{3, 0, "", true, 0, 0, 0},
		{5, 2, "", false, 64, 0, 0},
		{10, 0, "keyword-first", true, 0, 0, 0},
		{10, 3, "combined", false, 0, 0, 0},
		{100, 0, "", true, 32, 0, 0},
		{2, 7, "", false, 0, 0, 0},
		{4, 990, "", false, 0, 0, 0}, // offset past the end: both sides empty
		// Weighted: the router must forward ws/wc, or the shards rank
		// with unit weights.
		{10, 0, "", true, 0, 3, 0},
		{10, 0, "combined", false, 0, 0.5, 4},
		{5, 1, "keyword-first", false, 0, 2, 2},
	} {
		q := flexpath.MustParseQuery(corpusQuery)
		scheme := flexpath.StructureFirst
		if tc.scheme != "" {
			var err error
			if scheme, err = flexpath.ParseScheme(tc.scheme); err != nil {
				t.Fatal(err)
			}
		}
		want, err := f.union.Search(q, flexpath.SearchOptions{
			K: tc.k, Offset: tc.offset, Scheme: scheme,
			Weights: flexpath.Weights{Structural: tc.ws, Contains: tc.wc},
		})
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(encodeAnswers(want, tc.why, tc.snippet))

		u := f.srv.URL + "/search?q=" + escape(corpusQuery) +
			"&k=" + strconv.Itoa(tc.k) + "&offset=" + strconv.Itoa(tc.offset)
		if tc.scheme != "" {
			u += "&scheme=" + tc.scheme
		}
		if tc.why {
			u += "&why=1"
		}
		if tc.snippet > 0 {
			u += "&snippet=" + strconv.Itoa(tc.snippet)
		}
		if tc.ws > 0 {
			u += "&ws=" + strconv.FormatFloat(tc.ws, 'g', -1, 64)
		}
		if tc.wc > 0 {
			u += "&wc=" + strconv.FormatFloat(tc.wc, 'g', -1, 64)
		}
		var out routerResponse
		resp, body := getJSON(t, u, &out)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d o=%d: status %d: %s", tc.k, tc.offset, resp.StatusCode, body)
		}
		if out.ShardsOK != 3 || out.ShardsTotal != 3 || out.Partial {
			t.Fatalf("k=%d o=%d: shards %d/%d partial=%v, want full 3/3",
				tc.k, tc.offset, out.ShardsOK, out.ShardsTotal, out.Partial)
		}
		gotJSON, _ := json.Marshal(out.Answers)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("k=%d o=%d scheme=%q ws=%g wc=%g: router merge diverged from single node\n got %s\nwant %s",
				tc.k, tc.offset, tc.scheme, tc.ws, tc.wc, gotJSON, wantJSON)
		}
	}
}

// Regression (comparator extraction): answers that tie exactly on score
// but live on different shards must merge in document-name order —
// byte-identically to the single-node merge.
func TestRouterTieBreakAcrossShardBoundaries(t *testing.T) {
	// Six identical documents => six exactly tying top answers; the
	// round-robin split puts a,b,c (and d,e,f) on three different shards.
	docs := map[string]string{}
	for _, name := range []string{"a.xml", "b.xml", "c.xml", "d.xml", "e.xml", "f.xml"} {
		docs[name] = corpusDoc("tie", 0)
	}
	f := startRouter(t, routerConfig{shardTimeout: 10 * time.Second}, docs)

	var out routerResponse
	resp, body := getJSON(t, f.srv.URL+"/search?q="+escape(corpusQuery)+"&k=50", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if len(out.Answers) < 6 {
		t.Fatalf("got %d answers, want >= 6: %s", len(out.Answers), body)
	}
	// The leading tie group (same scores as rank 1) must list documents in
	// non-decreasing name order and cover all six documents.
	top := out.Answers[0]
	group := []string{}
	for _, a := range out.Answers {
		if a.Structural != top.Structural || a.Keyword != top.Keyword {
			break
		}
		group = append(group, a.Doc)
	}
	if !sort.StringsAreSorted(group) {
		t.Errorf("tie group not in document-name order: %v", group)
	}
	distinct := map[string]bool{}
	for _, d := range group {
		distinct[d] = true
	}
	if len(distinct) != 6 {
		t.Errorf("tie group covers %d documents, want all 6: %v", len(distinct), group)
	}

	// And the whole ranking is still byte-identical to a single node.
	q := flexpath.MustParseQuery(corpusQuery)
	want, err := f.union.Search(q, flexpath.SearchOptions{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(encodeAnswers(want, false, 0))
	gotJSON, _ := json.Marshal(out.Answers)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("tie merge diverged from single node\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// The router must forward K+Offset (never the offset itself) to shards
// and apply the offset exactly once post-merge: page(o,k) through the
// router equals window [o:o+k] of the router's unpaged ranking.
func TestRouterKOffsetPropagation(t *testing.T) {
	f := startRouter(t, routerConfig{shardTimeout: 10 * time.Second}, standardCorpus())

	var unpaged routerResponse
	resp, _ := getJSON(t, f.srv.URL+"/search?q="+escape(corpusQuery)+"&k=9", &unpaged)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("unpaged query failed")
	}
	const k, offset = 3, 1
	var page routerResponse
	resp, body := getJSON(t, f.srv.URL+"/search?q="+escape(corpusQuery)+
		"&k="+strconv.Itoa(k)+"&offset="+strconv.Itoa(offset), &page)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	// page(o,k) == unpaged(K=o+k)[o:o+k], modulo rank renumbering.
	if len(unpaged.Answers) < offset+k {
		t.Fatalf("fixture too small: unpaged ranking has %d answers, need %d", len(unpaged.Answers), offset+k)
	}
	want := unpaged.Answers[offset : offset+k]
	if len(page.Answers) != k {
		t.Fatalf("page has %d answers, want %d", len(page.Answers), k)
	}
	for i := range page.Answers {
		got, exp := page.Answers[i], want[i]
		if got.Rank != i+1 {
			t.Errorf("page rank %d, want %d (ranks renumber within the page)", got.Rank, i+1)
		}
		got.Rank, exp.Rank = 0, 0
		gj, _ := json.Marshal(got)
		ej, _ := json.Marshal(exp)
		if !bytes.Equal(gj, ej) {
			t.Errorf("page answer %d = %s, want %s", i, gj, ej)
		}
	}

	// Every shard saw k=o+k and no offset parameter.
	for si, sh := range f.shards {
		reqs := sh.requests()
		if len(reqs) == 0 {
			t.Fatalf("shard %d received no requests", si)
		}
		last := reqs[len(reqs)-1]
		if got := last.Get("k"); got != strconv.Itoa(k+offset) {
			t.Errorf("shard %d got k=%s, want %d (K+Offset)", si, got, k+offset)
		}
		if last.Get("offset") != "" {
			t.Errorf("shard %d was sent offset=%s; the offset must be applied once, post-merge", si, last.Get("offset"))
		}
	}

	// K+Offset is the shards' k, so it is bounded like one: past the
	// bound the router answers 400 itself instead of fanning out a
	// request every shard would refuse.
	sent := len(f.shards[0].requests())
	resp, body = getJSON(t, f.srv.URL+"/search?q="+escape(corpusQuery)+"&k=4&offset=1000", nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "k+offset") {
		t.Errorf("k=4&offset=1000: status %d, want 400 naming k+offset: %s", resp.StatusCode, body)
	}
	if n := len(f.shards[0].requests()); n != sent {
		t.Errorf("an over-bound k+offset reached the shards")
	}
}

// A failed shard must degrade the response, not the request: HTTP 200,
// shards_ok < shards_total, and a deterministic merge of the surviving
// shards (equal to a single node over the surviving documents).
func TestRouterPartialResultOnFailedShard(t *testing.T) {
	docs := standardCorpus()
	names := sortedNames(docs)

	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveutil.WriteJSON(w, http.StatusInternalServerError, serveutil.ErrorBody{Error: "shard exploded"})
	}))
	defer failing.Close()
	good0 := &testShard{coll: flexpath.NewCollection()}
	good2 := &testShard{coll: flexpath.NewCollection()}
	surviving := flexpath.NewCollection()
	for i, name := range names {
		switch i % 3 {
		case 0:
			mustAdd(t, good0.coll, name, docs[name])
			mustAdd(t, surviving, name, docs[name])
		case 2:
			mustAdd(t, good2.coll, name, docs[name])
			mustAdd(t, surviving, name, docs[name])
		}
	}
	s0, s2 := httptest.NewServer(good0), httptest.NewServer(good2)
	defer s0.Close()
	defer s2.Close()
	rt, err := newRouter([]string{s0.URL, failing.URL, s2.URL}, routerConfig{shardTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt)
	defer srv.Close()

	var out routerResponse
	resp, body := getJSON(t, srv.URL+"/search?q="+escape(corpusQuery)+"&k=10", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with partial results: %s", resp.StatusCode, body)
	}
	if out.ShardsOK != 2 || out.ShardsTotal != 3 || !out.Partial {
		t.Fatalf("shards_ok=%d shards_total=%d partial=%v, want 2/3 partial", out.ShardsOK, out.ShardsTotal, out.Partial)
	}
	if len(out.ShardErrors) != 1 || !strings.Contains(out.ShardErrors[0], "shard exploded") {
		t.Errorf("shard_errors = %v, want the failing shard's message", out.ShardErrors)
	}
	// Deterministic partial merge: byte-identical to a single node over
	// the surviving documents.
	q := flexpath.MustParseQuery(corpusQuery)
	want, err := surviving.Search(q, flexpath.SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(encodeAnswers(want, false, 0))
	gotJSON, _ := json.Marshal(out.Answers)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("partial merge diverged from single node over survivors\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// Metrics reflect the degradation.
	resp, body = getJSON(t, srv.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("metrics failed")
	}
	text := string(body)
	for _, wantLine := range []string{
		`flexpath_router_queries_total{status="partial"} 1`,
		`flexpath_router_partial_results_total 1`,
		fmt.Sprintf("flexpath_router_shard_errors_total{shard=%q} 1", failing.URL),
	} {
		if !strings.Contains(text, wantLine) {
			t.Errorf("metrics missing %q", wantLine)
		}
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Errorf("router exposition invalid: %v", err)
	}
}

// A shard slower than the per-shard deadline is dropped from the merge
// (partial result) instead of stalling the whole query, and deadline
// hits are not retried.
func TestRouterShardDeadline(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(5 * time.Second):
		case <-r.Context().Done():
			return
		}
		serveutil.WriteJSON(w, http.StatusOK, serveutil.SearchResponse{Answers: []serveutil.Answer{}})
	}))
	defer slow.Close()
	good := &testShard{coll: flexpath.NewCollection()}
	mustAdd(t, good.coll, "doc0.xml", corpusDoc("d0", 0))
	gs := httptest.NewServer(good)
	defer gs.Close()

	rt, err := newRouter([]string{gs.URL, slow.URL}, routerConfig{shardTimeout: 100 * time.Millisecond, retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt)
	defer srv.Close()

	start := time.Now()
	var out routerResponse
	resp, body := getJSON(t, srv.URL+"/search?q="+escape(corpusQuery)+"&k=5", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("query took %v; the 100ms shard deadline did not bound it", elapsed)
	}
	if out.ShardsOK != 1 || out.ShardsTotal != 2 || !out.Partial {
		t.Fatalf("shards_ok=%d/%d partial=%v, want 1/2 partial", out.ShardsOK, out.ShardsTotal, out.Partial)
	}
	if len(out.Answers) != 1 || out.Answers[0].Doc != "doc0.xml" {
		t.Errorf("answers = %+v, want doc0.xml only", out.Answers)
	}
	if got := rt.met.shards[1].timeouts.Load(); got != 1 {
		t.Errorf("slow shard timeouts counter = %d, want 1", got)
	}
	if got := rt.met.shards[1].retries.Load(); got != 0 {
		t.Errorf("deadline hits must not be retried; retries counter = %d", got)
	}
}

// Connection errors are retried with bounded attempts, then surface as a
// partial result.
func TestRouterRetriesConnectionErrors(t *testing.T) {
	good := &testShard{coll: flexpath.NewCollection()}
	mustAdd(t, good.coll, "doc0.xml", corpusDoc("d0", 0))
	gs := httptest.NewServer(good)
	defer gs.Close()
	// A server that is closed immediately: connecting to its (now free)
	// port fails fast.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	rt, err := newRouter([]string{gs.URL, deadURL}, routerConfig{shardTimeout: 10 * time.Second, retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt)
	defer srv.Close()

	var out routerResponse
	resp, body := getJSON(t, srv.URL+"/search?q="+escape(corpusQuery)+"&k=5", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if out.ShardsOK != 1 || out.ShardsTotal != 2 || !out.Partial {
		t.Fatalf("shards_ok=%d/%d partial=%v, want 1/2 partial", out.ShardsOK, out.ShardsTotal, out.Partial)
	}
	if got := rt.met.shards[1].retries.Load(); got != 2 {
		t.Errorf("retries counter = %d, want 2 (bounded by -retries)", got)
	}
	if got := rt.met.shards[1].errors.Load(); got != 3 {
		t.Errorf("errors counter = %d, want 3 (initial attempt + 2 retries)", got)
	}
	if len(out.ShardErrors) != 1 || !strings.Contains(out.ShardErrors[0], "after 3 attempts") {
		t.Errorf("shard_errors = %v, want a bounded-attempts error", out.ShardErrors)
	}
}

// All shards down is an error, not an empty ranking.
func TestRouterAllShardsDownIs502(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	rt, err := newRouter([]string{deadURL}, routerConfig{shardTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt)
	defer srv.Close()
	resp, body := getJSON(t, srv.URL+"/search?q="+escape(corpusQuery), nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", resp.StatusCode, body)
	}
	if got := rt.met.failed.Load(); got != 1 {
		t.Errorf("failed counter = %d, want 1", got)
	}
}

// Corpus mutations route to the consistent-hash owner of the name, so
// repeated operations on one document always land on the same shard.
func TestRouterAdminRoutesByOwner(t *testing.T) {
	type hit struct{ path, name string }
	hits := make([][]hit, 3)
	var mu sync.Mutex
	var urls []string
	for i := 0; i < 3; i++ {
		i := i
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			hits[i] = append(hits[i], hit{r.URL.Path, r.URL.Query().Get("name")})
			mu.Unlock()
			serveutil.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	rt, err := newRouter(urls, routerConfig{shardTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt)
	defer srv.Close()

	for d := 0; d < 12; d++ {
		name := fmt.Sprintf("doc-%d.xml", d)
		resp, err := http.Post(srv.URL+"/admin/add?name="+escape(name), "application/xml",
			strings.NewReader("<r/>"))
		if err != nil {
			t.Fatal(err)
		}
		owner := rt.ring.Owner(name)
		if got := resp.Header.Get("X-Flexpath-Shard"); got != owner {
			t.Errorf("%s: X-Flexpath-Shard %q, want owner %q", name, got, owner)
		}
		resp.Body.Close()
	}
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for i, u := range urls {
		for _, h := range hits[i] {
			total++
			if h.path != "/admin/add" {
				t.Errorf("shard %d saw path %q, want /admin/add", i, h.path)
			}
			if owner := rt.ring.Owner(h.name); owner != u {
				t.Errorf("%s landed on %s, its owner is %s", h.name, u, owner)
			}
		}
	}
	if total != 12 {
		t.Errorf("%d admin requests reached shards, want 12 (exactly one per mutation)", total)
	}
	// GET is rejected without touching shards.
	resp, _ := getJSON(t, srv.URL+"/admin/add?name=x.xml", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /admin/add status %d, want 405", resp.StatusCode)
	}
}

// Invalid requests are rejected by the router itself: 400, zero shard
// traffic, bad_request counter.
func TestRouterBadRequestsDoNotTouchShards(t *testing.T) {
	f := startRouter(t, routerConfig{shardTimeout: 10 * time.Second}, standardCorpus())
	bad := []string{
		"/search",                           // missing q
		"/search?q=" + escape("//article["), // parse error
		"/search?q=" + escape("//article") + "&k=0",
		"/search?q=" + escape("//article") + "&k=1001",
		"/search?q=" + escape("//article") + "&offset=-1",
		"/search?q=" + escape("//article") + "&algo=bogus",
		"/search?q=" + escape("//article") + "&scheme=none",
		"/search?q=" + escape("//article") + "&ws=-1",
		"/search?q=" + escape("//article") + "&wc=x",
	}
	for _, b := range bad {
		resp, body := getJSON(t, f.srv.URL+b, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", b, resp.StatusCode, body)
		}
	}
	for i, sh := range f.shards {
		if n := len(sh.requests()); n != 0 {
			t.Errorf("shard %d saw %d requests from invalid router input", i, n)
		}
	}
	if got := f.rt.met.badRequest.Load(); got != uint64(len(bad)) {
		t.Errorf("bad_request counter = %d, want %d", got, len(bad))
	}
}

// /stats aggregates shard corpus sizes and flags unreachable shards
// without failing the endpoint.
func TestRouterStats(t *testing.T) {
	statsSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/stats" {
			http.NotFound(w, r)
			return
		}
		serveutil.WriteJSON(w, http.StatusOK, map[string]int{"documents": 4, "elements": 40})
	}))
	defer statsSrv.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	rt, err := newRouter([]string{statsSrv.URL, deadURL}, routerConfig{shardTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt)
	defer srv.Close()

	var out routerStatsResponse
	resp, body := getJSON(t, srv.URL+"/stats", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if out.ShardsTotal != 2 || out.ShardsOK != 1 {
		t.Errorf("shards %d/%d, want 1/2", out.ShardsOK, out.ShardsTotal)
	}
	if out.Documents != 4 || out.Elements != 40 {
		t.Errorf("aggregated corpus %d docs / %d elements, want 4/40", out.Documents, out.Elements)
	}
	if len(out.Shards) != 2 || !out.Shards[0].OK || out.Shards[1].OK || out.Shards[1].Error == "" {
		t.Errorf("per-shard rows wrong: %+v", out.Shards)
	}
}

// The router's exposition is valid and announces every
// flexpath_router_* family even before any traffic.
func TestRouterMetricsExposition(t *testing.T) {
	f := startRouter(t, routerConfig{shardTimeout: 10 * time.Second}, standardCorpus())
	resp, body := getJSON(t, f.srv.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("metrics failed")
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	text := string(body)
	for _, fam := range []string{
		"flexpath_router_shards",
		"flexpath_router_queries_total",
		"flexpath_router_partial_results_total",
		"flexpath_router_panics_total",
		"flexpath_router_shard_request_duration_seconds",
		"flexpath_router_shard_errors_total",
		"flexpath_router_shard_timeouts_total",
		"flexpath_router_shard_retries_total",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("metrics missing family %s", fam)
		}
	}
}

func TestParseShards(t *testing.T) {
	if _, err := parseShards(""); err == nil {
		t.Error("empty -shards accepted")
	}
	if _, err := parseShards("127.0.0.1:9001"); err == nil {
		t.Error("schemeless shard accepted")
	}
	if _, err := parseShards("http://a,http://a/"); err == nil {
		t.Error("duplicate shard accepted")
	}
	got, err := parseShards(" http://a/ ,http://b")
	if err != nil || len(got) != 2 || got[0] != "http://a" || got[1] != "http://b" {
		t.Errorf("parseShards = %v, %v", got, err)
	}
}
