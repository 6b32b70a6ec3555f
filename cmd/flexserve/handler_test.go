package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"flexpath"
	"flexpath/internal/obs"
)

const serveXML = `<lib>
  <book id="b1"><chapter><para>xml streaming engines</para></chapter></book>
  <book id="b2"><chapter><title>xml streaming</title><para>x</para></chapter></book>
</lib>`

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	doc, err := flexpath.LoadString(serveXML)
	if err != nil {
		t.Fatal(err)
	}
	coll := flexpath.NewCollection()
	if err := coll.Add("lib.xml", doc); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandler(coll))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	b := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(b)
		buf.Write(b[:n])
		if err != nil {
			break
		}
	}
	return resp, []byte(buf.String())
}

const serveQuery = `//book[./chapter/para[.contains("xml" and "streaming")]]`

func TestSearchEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, body := get(t, srv.URL+"/search?q="+escape(serveQuery)+"&k=5&why=1&snippet=40")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out searchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(out.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(out.Answers))
	}
	if out.Answers[0].ID != "b1" || out.Answers[0].Relaxations != 0 {
		t.Errorf("top answer: %+v", out.Answers[0])
	}
	if out.Answers[1].Relaxations == 0 || len(out.Answers[1].Relaxed) == 0 {
		t.Errorf("second answer should be relaxed with explanations: %+v", out.Answers[1])
	}
	if out.Answers[0].Snippet == "" {
		t.Error("snippet missing")
	}
}

func TestSearchEndpointErrors(t *testing.T) {
	srv := testServer(t)
	cases := []string{
		"/search",                                       // missing q
		"/search?q=" + escape("((("),                    // bad query
		"/search?q=" + escape("//book") + "&k=0",        // bad k
		"/search?q=" + escape("//book") + "&k=1001",     // k above clamp
		"/search?q=" + escape("//book") + "&k=abc",      // non-numeric k
		"/search?q=" + escape("//book") + "&k=-3",       // negative k
		"/search?q=" + escape("//book") + "&algo=bogus", // bad algo
		"/search?q=" + escape("//book") + "&scheme=huh", // bad scheme
		"/relaxations",                                  // missing q
	}
	for _, path := range cases {
		resp, _ := get(t, srv.URL+path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
	// k at the clamp boundary is valid.
	resp, body := get(t, srv.URL+"/search?q="+escape("//book")+"&k=1000")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("k=1000: status %d, want 200: %s", resp.StatusCode, body)
	}
}

func TestStatsCacheCounters(t *testing.T) {
	doc, err := flexpath.LoadString(serveXML)
	if err != nil {
		t.Fatal(err)
	}
	coll := flexpath.NewCollection()
	if err := coll.Add("lib.xml", doc); err != nil {
		t.Fatal(err)
	}
	coll.SetCache(16)
	coll.SetDocumentCaches(16)
	srv := httptest.NewServer(newHandler(coll))
	defer srv.Close()

	url := srv.URL + "/search?q=" + escape(serveQuery) + "&k=5"
	for i := 0; i < 2; i++ {
		if resp, body := get(t, url); resp.StatusCode != http.StatusOK {
			t.Fatalf("search %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := get(t, srv.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if st.Cache == nil {
		t.Fatalf("stats missing cache counters: %s", body)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache counters = %+v, want 1 hit / 1 miss", *st.Cache)
	}
	if st.DocCache == nil {
		t.Errorf("stats missing doc_cache counters: %s", body)
	}
	if !strings.Contains(string(body), `"ft_cache"`) || st.FTCache.Capacity == 0 {
		t.Errorf("stats missing ft_cache block: %s", body)
	}
}

func TestSearchTimeoutReturns504(t *testing.T) {
	// A 1ns budget expires before evaluation starts, so the handler's
	// deadline branch is deterministic regardless of machine speed.
	doc, err := flexpath.LoadString(serveXML)
	if err != nil {
		t.Fatal(err)
	}
	coll := flexpath.NewCollection()
	if err := coll.Add("lib.xml", doc); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandlerTimeout(coll, time.Nanosecond))
	defer srv.Close()
	resp, body := get(t, srv.URL+"/search?q="+escape(serveQuery)+"&k=5")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Errorf("timeout body: %s", body)
	}
}

func TestRelaxationsAndPlanTimeoutReturns504(t *testing.T) {
	// Regression: /relaxations and /plan used to ignore both the
	// request context and -timeout, holding a worker goroutine for as
	// long as a pathological document's chain build took.
	doc, err := flexpath.LoadString(serveXML)
	if err != nil {
		t.Fatal(err)
	}
	coll := flexpath.NewCollection()
	if err := coll.Add("lib.xml", doc); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newHandlerTimeout(coll, time.Nanosecond))
	defer srv.Close()
	for _, path := range []string{"/relaxations", "/plan"} {
		resp, body := get(t, srv.URL+path+"?q="+escape(serveQuery))
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s: status %d, want 504: %s", path, resp.StatusCode, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s timeout body: %s", path, body)
		}
	}
}

func TestRelaxationsEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, body := get(t, srv.URL+"/relaxations?q="+escape(serveQuery))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out relaxationsResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Docs) != 1 || len(out.Docs[0].Steps) == 0 {
		t.Errorf("relaxations: %+v", out)
	}
}

func TestPlanAndStatsEndpoints(t *testing.T) {
	srv := testServer(t)
	resp, body := get(t, srv.URL+"/plan?q="+escape(serveQuery))
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "plan:") {
		t.Errorf("plan endpoint: %d %s", resp.StatusCode, body)
	}
	resp, body = get(t, srv.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Documents != 1 || st.Elements == 0 {
		t.Errorf("stats: %+v", st)
	}
	resp, _ = get(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Error("healthz failed")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	doc, err := flexpath.LoadString(serveXML)
	if err != nil {
		t.Fatal(err)
	}
	coll := flexpath.NewCollection()
	if err := coll.Add("lib.xml", doc); err != nil {
		t.Fatal(err)
	}
	coll.SetCache(16)
	coll.SetDocumentCaches(16)
	srv := httptest.NewServer(newHandler(coll))
	defer srv.Close()

	// Two identical searches: one miss, one collection-cache hit. The
	// algorithm is pinned so the expected metric labels are stable (the
	// default Auto mode labels spans "Auto" and chooses per query).
	url := srv.URL + "/search?q=" + escape(serveQuery) + "&k=5&algo=hybrid"
	for i := 0; i < 2; i++ {
		if resp, body := get(t, url); resp.StatusCode != http.StatusOK {
			t.Fatalf("search %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("content type %q, want %q", ct, obs.PromContentType)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		`flexpath_queries_total{algo="Hybrid",scheme="structure-first",status="ok"} 2`,
		"flexpath_inflight_queries 0",
		`flexpath_query_duration_seconds_count{algo="Hybrid"} 2`,
		"flexpath_stage_duration_seconds_bucket",
		`flexpath_cache_hits_total{cache="collection"} 1`,
		`flexpath_cache_misses_total{cache="collection"} 1`,
		"flexpath_documents 1",
		"flexpath_elements",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestSlowlogEndpoint(t *testing.T) {
	srv := testServer(t)
	if resp, body := get(t, srv.URL+"/search?q="+escape(serveQuery)+"&k=5&algo=hybrid"); resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d: %s", resp.StatusCode, body)
	}
	resp, body := get(t, srv.URL+"/slowlog?n=10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slowlog status %d", resp.StatusCode)
	}
	var out slowlogResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(out.Entries) != 1 {
		t.Fatalf("entries = %d, want 1: %s", len(out.Entries), body)
	}
	e := out.Entries[0]
	if e.Query == "" || e.Algo != "Hybrid" || e.Status != "ok" || e.K != 5 {
		t.Errorf("slowlog entry: %+v", e)
	}
	if e.TotalMS <= 0 {
		t.Errorf("total_ms = %v, want > 0", e.TotalMS)
	}
	for _, stage := range obs.StageNames() {
		if _, ok := e.StagesMS[stage]; !ok {
			t.Errorf("stages_ms missing %q: %+v", stage, e.StagesMS)
		}
	}
	if len(out.Latency) != 1 || out.Latency[0].Count != 1 || out.Latency[0].P50MS <= 0 {
		t.Errorf("latency summary: %+v", out.Latency)
	}
}

func TestPprofGating(t *testing.T) {
	doc, err := flexpath.LoadString(serveXML)
	if err != nil {
		t.Fatal(err)
	}
	coll := flexpath.NewCollection()
	if err := coll.Add("lib.xml", doc); err != nil {
		t.Fatal(err)
	}
	off, _ := newHandlerConfig(coll, handlerConfig{})
	on, _ := newHandlerConfig(coll, handlerConfig{pprof: true})
	srvOff := httptest.NewServer(off)
	defer srvOff.Close()
	srvOn := httptest.NewServer(on)
	defer srvOn.Close()

	if resp, _ := get(t, srvOff.URL+"/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, srvOn.URL+"/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", resp.StatusCode)
	}
}

func escape(s string) string {
	r := strings.NewReplacer(
		" ", "%20", `"`, "%22", "[", "%5B", "]", "%5D", "/", "%2F", "<", "%3C", ">", "%3E", "#", "%23", "&", "%26", "+", "%2B",
	)
	return r.Replace(s)
}

// TestPlannerObservability: a default (Auto) search must surface the
// planner's choice in the response, in /stats, and in /metrics.
func TestPlannerObservability(t *testing.T) {
	srv := testServer(t)
	resp, body := get(t, srv.URL+"/search?q="+escape(serveQuery)+"&k=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out searchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	switch out.Algo {
	case "DPO", "SSO", "Hybrid":
	default:
		t.Errorf("search response algo = %q", out.Algo)
	}
	if out.AlgoReason == "" {
		t.Error("search response has no algo_reason")
	}

	resp, body = get(t, srv.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d: %s", resp.StatusCode, body)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad stats JSON: %v\n%s", err, body)
	}
	if st.Planner.Observations == 0 {
		t.Errorf("planner stats not populated: %+v", st.Planner)
	}
	if st.Planner.Choices[out.Algo] == 0 {
		t.Errorf("planner choices missing %q: %+v", out.Algo, st.Planner.Choices)
	}

	resp, body = get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`flexpath_planner_choices_total{algo="` + out.Algo + `"} 1`,
		`flexpath_planner_observations_total 1`,
		`flexpath_planner_restart_rate`,
		`flexpath_planner_ns_per_unit{algo="` + out.Algo + `"}`,
		`flexpath_planner_calibration_error{algo="` + out.Algo + `"}`,
		`flexpath_queries_total{algo="Auto",scheme="structure-first",status="ok"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
}

// The offset parameter pages the merged ranking over HTTP with the same
// identity the library guarantees: page(offset=o, k=k) equals the window
// [o:o+k] of the unpaged ranking, with ranks renumbered from 1 within
// the page.
func TestSearchOffsetPagination(t *testing.T) {
	srv := testServer(t)
	// Unpaged reference ranking: a query loose enough to admit several
	// relaxed answers.
	q := escape(`//book[./chapter/para[.contains("xml")]]`)
	_, fullBody := get(t, srv.URL+"/search?q="+q+"&k=10")
	var full searchResponse
	if err := json.Unmarshal(fullBody, &full); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, fullBody)
	}
	if len(full.Answers) < 2 {
		t.Fatalf("need at least 2 answers to observe paging, got %d", len(full.Answers))
	}
	for offset := 0; offset <= len(full.Answers); offset++ {
		resp, body := get(t, srv.URL+"/search?q="+q+"&k=1&offset="+strconv.Itoa(offset))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("offset=%d: status %d: %s", offset, resp.StatusCode, body)
		}
		var page searchResponse
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatalf("offset=%d: bad JSON: %v", offset, err)
		}
		if offset >= len(full.Answers) {
			if len(page.Answers) != 0 {
				t.Errorf("offset=%d past the end: got %d answers", offset, len(page.Answers))
			}
			continue
		}
		if len(page.Answers) != 1 {
			t.Fatalf("offset=%d: got %d answers, want 1", offset, len(page.Answers))
		}
		got, want := page.Answers[0], full.Answers[offset]
		if got.Rank != 1 {
			t.Errorf("offset=%d: rank %d, want 1 (ranks renumber within the page)", offset, got.Rank)
		}
		if got.Doc != want.Doc || got.Path != want.Path || got.ID != want.ID ||
			got.Structural != want.Structural || got.Keyword != want.Keyword {
			t.Errorf("offset=%d: page answer %+v != unpaged rank %d %+v", offset, got, offset+1, want)
		}
	}
	// Out-of-range offsets are rejected, not clamped.
	for _, bad := range []string{"-1", "10001", "x"} {
		resp, _ := get(t, srv.URL+"/search?q="+q+"&k=1&offset="+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("offset=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestRelaxationsWeightsForwarded: /relaxations must honor the same
// ws/wc parameters /search does, so the penalties it reports match the
// scores a weighted search ranks by.
func TestRelaxationsWeightsForwarded(t *testing.T) {
	srv := testServer(t)
	fetch := func(params string) relaxationsResponse {
		t.Helper()
		resp, body := get(t, srv.URL+"/relaxations?q="+escape(serveQuery)+params)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out relaxationsResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.Docs) != 1 || len(out.Docs[0].Steps) == 0 {
			t.Fatalf("relaxations: %+v", out)
		}
		return out
	}
	uniform := fetch("")
	weighted := fetch("&ws=2&wc=2")
	if len(uniform.Docs[0].Steps) != len(weighted.Docs[0].Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(uniform.Docs[0].Steps), len(weighted.Docs[0].Steps))
	}
	for i, u := range uniform.Docs[0].Steps {
		w := weighted.Docs[0].Steps[i]
		if w.Penalty != 2*u.Penalty {
			t.Errorf("step %d: weighted penalty = %g, want %g", i+1, w.Penalty, 2*u.Penalty)
		}
	}
}

// TestBadWeightParams: malformed or non-positive ws/wc are a 400 on
// every endpoint that accepts them.
func TestBadWeightParams(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{
		"/search?q=" + escape("//book") + "&ws=0",
		"/search?q=" + escape("//book") + "&wc=-1",
		"/search?q=" + escape("//book") + "&ws=abc",
		"/relaxations?q=" + escape("//book") + "&wc=0",
		"/plan?q=" + escape("//book") + "&ws=-2",
	} {
		resp, _ := get(t, srv.URL+path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
	// Valid weights work end to end.
	resp, body := get(t, srv.URL+"/search?q="+escape(serveQuery)+"&k=5&ws=2&wc=3")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("weighted search: status %d: %s", resp.StatusCode, body)
	}
}

// TestPlanCacheObservability: the plan-template cache must surface in
// /stats (plan_cache block) and /metrics (flexpath_plancache_*), and a
// repeated query shape under a different algorithm must register as a
// template hit.
func TestPlanCacheObservability(t *testing.T) {
	srv := testServer(t)
	for _, params := range []string{"&algo=hybrid", "&algo=sso"} {
		if resp, body := get(t, srv.URL+"/search?q="+escape(serveQuery)+"&k=5"+params); resp.StatusCode != http.StatusOK {
			t.Fatalf("search%s: status %d: %s", params, resp.StatusCode, body)
		}
	}
	resp, body := get(t, srv.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if st.PlanCache == nil {
		t.Fatalf("stats missing plan_cache block: %s", body)
	}
	// Two searches of one shape: one template build, one hit.
	if st.PlanCache.Misses != 1 || st.PlanCache.Hits != 1 {
		t.Errorf("plan cache counters = %+v, want 1 miss / 1 hit", *st.PlanCache)
	}
	if st.PlanCache.Entries != 1 || st.PlanCache.Capacity <= 0 {
		t.Errorf("plan cache size = %d/%d, want 1 entry and positive capacity", st.PlanCache.Entries, st.PlanCache.Capacity)
	}

	resp, body = get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"flexpath_plancache_hits_total 1",
		"flexpath_plancache_misses_total 1",
		"flexpath_plancache_evictions_total 0",
		"flexpath_plancache_dedups_total 0",
		"flexpath_plancache_entries 1",
		"# TYPE flexpath_plancache_capacity gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
