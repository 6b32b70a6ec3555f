package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"flexpath"
	"flexpath/internal/obs"
)

// serverMetrics are the serving-robustness counters exported as the
// flexpath_server_* metric families: requests admitted and executing,
// requests shed by the admission limit, and handler panics recovered
// into 500s.
type serverMetrics struct {
	inFlight atomic.Int64
	shed     atomic.Uint64
	panics   atomic.Uint64
	// bulk ingest counters (flexpath_server_bulk_*): batches currently
	// executing, batches rejected by the concurrency bound, and individual
	// operations applied / failed across all batches.
	bulkInFlight atomic.Int64
	bulkRejected atomic.Uint64
	bulkApplied  atomic.Uint64
	bulkFailed   atomic.Uint64
}

// handler serves the JSON API over a collection.
type handler struct {
	coll *flexpath.Collection
	mux  *http.ServeMux
	// timeout bounds per-request search evaluation; 0 means no limit.
	timeout time.Duration
	// reg aggregates per-query observability (never nil).
	reg *obs.Registry
	// sem, when non-nil, is the admission semaphore for query endpoints:
	// its capacity is the max-in-flight limit, and a request that cannot
	// acquire a slot immediately is shed with 503 + Retry-After.
	sem chan struct{}
	// dur, when non-nil, is the durable collection the admin mutation
	// endpoints write through: mutations are WAL-logged and fsync'd before
	// the response is sent. coll aliases dur.Collection() in that case.
	dur *flexpath.DurableCollection
	// bulkSem, when non-nil, bounds concurrently executing /admin/bulk
	// batches; excess batches are rejected with 429 before their body is
	// read, so backpressure costs the client no upload bandwidth.
	bulkSem chan struct{}
	srv     serverMetrics
}

// handlerConfig configures optional serving features.
type handlerConfig struct {
	timeout time.Duration
	// slowCap and slowThreshold shape the slow-query log; zero values
	// pick the obs defaults (128 entries, log everything).
	slowCap       int
	slowThreshold time.Duration
	// pprof exposes net/http/pprof under /debug/pprof/.
	pprof bool
	// maxInFlight caps concurrently executing query requests (/search,
	// /relaxations, /plan); excess requests are shed with 503.
	// 0 means unlimited.
	maxInFlight int
	// admin exposes the corpus-mutation endpoints under /admin/.
	admin bool
	// durable, when set, routes admin mutations through the write-ahead
	// log; coll must be durable.Collection().
	durable *flexpath.DurableCollection
	// maxBulk caps concurrently executing /admin/bulk batches; excess is
	// rejected with 429. 0 means unlimited.
	maxBulk int
}

func newHandler(coll *flexpath.Collection) http.Handler {
	return newHandlerTimeout(coll, 0)
}

func newHandlerTimeout(coll *flexpath.Collection, timeout time.Duration) http.Handler {
	h, _ := newHandlerConfig(coll, handlerConfig{timeout: timeout})
	return h
}

// newHandlerConfig builds the full serving handler and returns the
// registry so the caller (main, tests) can inspect it.
func newHandlerConfig(coll *flexpath.Collection, cfg handlerConfig) (http.Handler, *obs.Registry) {
	h := &handler{
		coll:    coll,
		mux:     http.NewServeMux(),
		timeout: cfg.timeout,
		reg:     obs.NewRegistry(cfg.slowCap, cfg.slowThreshold),
		dur:     cfg.durable,
	}
	if cfg.maxInFlight > 0 {
		h.sem = make(chan struct{}, cfg.maxInFlight)
	}
	if cfg.maxBulk > 0 {
		h.bulkSem = make(chan struct{}, cfg.maxBulk)
	}
	h.mux.HandleFunc("/search", h.limited(h.search))
	h.mux.HandleFunc("/relaxations", h.limited(h.relaxations))
	h.mux.HandleFunc("/plan", h.limited(h.plan))
	h.mux.HandleFunc("/stats", h.stats)
	h.mux.HandleFunc("/metrics", h.metrics)
	h.mux.HandleFunc("/slowlog", h.slowlog)
	h.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n")) //nolint:errcheck
	})
	if cfg.admin {
		h.mux.HandleFunc("/admin/add", h.adminAdd)
		h.mux.HandleFunc("/admin/remove", h.adminRemove)
		h.mux.HandleFunc("/admin/replace", h.adminReplace)
		h.mux.HandleFunc("/admin/bulk", h.adminBulk)
	}
	if cfg.pprof {
		h.mux.HandleFunc("/debug/pprof/", pprof.Index)
		h.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		h.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		h.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		h.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return h, h.reg
}

// ServeHTTP dispatches through the mux under panic recovery: a panicking
// handler produces a 500 and a counter increment instead of killing the
// whole process (http.Server would otherwise only contain the panic to
// the connection goroutine — and a panic should be visible in /metrics,
// not just a log line).
func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			h.srv.panics.Add(1)
			log.Printf("flexserve: panic serving %s: %v\n%s", r.URL.Path, p, debug.Stack())
			// Best effort: if the handler already wrote headers this is a
			// no-op and the client sees a truncated response.
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: "internal server error"})
		}
	}()
	h.mux.ServeHTTP(w, r)
}

// limited wraps a query endpoint with admission control: at most
// maxInFlight requests execute concurrently, and excess load is shed
// immediately with 503 + Retry-After rather than queued (queueing under
// overload only grows latency until clients time out anyway). Operational
// endpoints (/metrics, /healthz, /stats, /admin) bypass the limiter so
// the server stays observable and manageable while saturated.
func (h *handler) limited(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if h.sem != nil {
			select {
			case h.sem <- struct{}{}:
				defer func() { <-h.sem }()
			default:
				h.srv.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusServiceUnavailable,
					errorBody{Error: "server overloaded: max in-flight queries reached, retry later"})
				return
			}
		}
		h.srv.inFlight.Add(1)
		defer h.srv.inFlight.Add(-1)
		next(w, r)
	}
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about write errors here
}

func badRequest(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusBadRequest, errorBody{Error: msg})
}

// requestContext applies the configured per-request evaluation timeout.
func (h *handler) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if h.timeout > 0 {
		return context.WithTimeout(ctx, h.timeout)
	}
	return ctx, func() {}
}

// searchStatus maps a search error to (HTTP status, span status).
func searchStatus(err error) (int, string) {
	switch {
	case err == nil:
		return http.StatusOK, "ok"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		return http.StatusInternalServerError, "canceled"
	default:
		return http.StatusInternalServerError, "error"
	}
}

// parseCommon extracts query, K, algorithm and scheme parameters.
func parseCommon(r *http.Request) (*flexpath.Query, flexpath.SearchOptions, error) {
	src := r.URL.Query().Get("q")
	if src == "" {
		return nil, flexpath.SearchOptions{}, errMissingQuery
	}
	q, err := flexpath.ParseQuery(src)
	if err != nil {
		return nil, flexpath.SearchOptions{}, err
	}
	opts := flexpath.SearchOptions{K: 10}
	if ks := r.URL.Query().Get("k"); ks != "" {
		// Clamp K: an unbounded k lets one request materialize an
		// arbitrarily large answer set.
		k, err := strconv.Atoi(ks)
		if err != nil || k < 1 || k > maxK {
			return nil, opts, errBadK
		}
		opts.K = k
	}
	if os := r.URL.Query().Get("offset"); os != "" {
		// Offset is clamped too: each member document materializes its
		// top K+Offset answers, so offset bounds per-request work just
		// like k does.
		o, err := strconv.Atoi(os)
		if err != nil || o < 0 || o > maxOffset {
			return nil, opts, errBadOffset
		}
		opts.Offset = o
	}
	if a := r.URL.Query().Get("algo"); a != "" {
		algo, err := flexpath.ParseAlgorithm(a)
		if err != nil {
			return nil, opts, err
		}
		opts.Algorithm = algo
	}
	if s := r.URL.Query().Get("scheme"); s != "" {
		scheme, err := flexpath.ParseScheme(s)
		if err != nil {
			return nil, opts, err
		}
		opts.Scheme = scheme
	}
	// ws/wc set the structural and contains predicate weights; absent
	// parameters keep the library default (uniform unit weights).
	if ws := r.URL.Query().Get("ws"); ws != "" {
		v, err := strconv.ParseFloat(ws, 64)
		if err != nil || v <= 0 {
			return nil, opts, errBadWeight
		}
		opts.Weights.Structural = v
	}
	if wc := r.URL.Query().Get("wc"); wc != "" {
		v, err := strconv.ParseFloat(wc, 64)
		if err != nil || v <= 0 {
			return nil, opts, errBadWeight
		}
		opts.Weights.Contains = v
	}
	return q, opts, nil
}

// maxK bounds the k parameter of one request; maxOffset bounds how deep
// pagination may reach into the ranking.
const (
	maxK      = 1000
	maxOffset = 10000
)

var (
	errMissingQuery = jsonError("missing q parameter")
	errBadK         = jsonError("k must be an integer between 1 and 1000")
	errBadOffset    = jsonError("offset must be an integer between 0 and 10000")
	errBadWeight    = jsonError("ws and wc must be positive numbers")
)

type jsonError string

func (e jsonError) Error() string { return string(e) }

type searchAnswer struct {
	Rank        int      `json:"rank"`
	Doc         string   `json:"doc"`
	Path        string   `json:"path"`
	ID          string   `json:"id,omitempty"`
	Structural  float64  `json:"structural"`
	Keyword     float64  `json:"keyword"`
	Relaxations int      `json:"relaxations"`
	Relaxed     []string `json:"relaxed,omitempty"`
	Snippet     string   `json:"snippet,omitempty"`
}

type searchResponse struct {
	Query string `json:"query"`
	// Algo names the algorithm that evaluated the search: the planner's
	// per-query choice under the default Auto mode (or "mixed" when
	// member documents chose differently), the requested algorithm
	// otherwise. AlgoReason carries the planner's explanation.
	Algo       string         `json:"algo,omitempty"`
	AlgoReason string         `json:"algo_reason,omitempty"`
	Answers    []searchAnswer `json:"answers"`
	ElapsedMS  float64        `json:"elapsed_ms"`
}

func (h *handler) search(w http.ResponseWriter, r *http.Request) {
	tParse := time.Now()
	q, opts, err := parseCommon(r)
	parseDur := time.Since(tParse)
	if err != nil {
		badRequest(w, err.Error())
		return
	}
	withWhy := r.URL.Query().Get("why") == "1"
	snippet := 0
	if ss := r.URL.Query().Get("snippet"); ss != "" {
		if n, err := strconv.Atoi(ss); err == nil && n > 0 && n <= 4096 {
			snippet = n
		}
	}
	// The request context carries client disconnects; the configured
	// timeout turns runaway evaluations into 504s instead of holding a
	// worker goroutine for an unbounded join. The span rides the same
	// context so the library layers record per-stage latency into it.
	ctx, cancel := h.requestContext(r)
	defer cancel()
	span := h.reg.StartSpan(q.String(), opts.Algorithm.String(), opts.Scheme.String(), opts.K)
	span.Rec(obs.StageParse, parseDur)
	ctx = obs.WithSpan(ctx, span)

	var m flexpath.Metrics
	opts.Metrics = &m
	start := time.Now()
	answers, err := h.coll.SearchContext(ctx, q, opts)
	status, spanStatus := searchStatus(err)
	span.Finish(spanStatus)
	if err != nil {
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	resp := searchResponse{
		Query:      q.String(),
		Algo:       m.Algorithm,
		AlgoReason: m.AlgoReason,
		ElapsedMS:  float64(time.Since(start)) / 1e6,
		Answers:    make([]searchAnswer, 0, len(answers)),
	}
	for i, a := range answers {
		sa := searchAnswer{
			Rank: i + 1, Doc: a.DocName, Path: a.Path, ID: a.ID,
			Structural: a.Structural, Keyword: a.Keyword, Relaxations: a.Relaxations,
		}
		if withWhy {
			sa.Relaxed = a.Relaxed
		}
		if snippet > 0 {
			sa.Snippet = a.Snippet(snippet)
		}
		resp.Answers = append(resp.Answers, sa)
	}
	writeJSON(w, http.StatusOK, resp)
}

type relaxationsResponse struct {
	Query string `json:"query"`
	Docs  []struct {
		Doc   string                    `json:"doc"`
		Steps []flexpath.RelaxationStep `json:"steps"`
	} `json:"docs"`
}

func (h *handler) relaxations(w http.ResponseWriter, r *http.Request) {
	// parseCommon, not a bespoke parser: /relaxations accepts the same
	// parameters /search does, so the chain it reports (weighted
	// penalties included) is the chain that search evaluates.
	q, opts, err := parseCommon(r)
	if err != nil {
		badRequest(w, err.Error())
		return
	}
	// Honor the request context and the configured timeout like
	// /search: chain building over a pathological document must not
	// hold this worker past the deadline.
	ctx, cancel := h.requestContext(r)
	defer cancel()
	ropts := flexpath.RelaxationsOpts{Weights: opts.Weights, Hierarchy: opts.Hierarchy}
	resp := relaxationsResponse{Query: q.String()}
	for _, name := range h.docNames() {
		doc, _ := h.coll.Document(name)
		steps, err := doc.RelaxationsWithContext(ctx, q, ropts)
		if err != nil {
			status, _ := searchStatus(err)
			writeJSON(w, status, errorBody{Error: err.Error()})
			return
		}
		resp.Docs = append(resp.Docs, struct {
			Doc   string                    `json:"doc"`
			Steps []flexpath.RelaxationStep `json:"steps"`
		}{Doc: name, Steps: steps})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *handler) plan(w http.ResponseWriter, r *http.Request) {
	q, opts, err := parseCommon(r)
	if err != nil {
		badRequest(w, err.Error())
		return
	}
	ctx, cancel := h.requestContext(r)
	defer cancel()
	type planDoc struct {
		Doc  string `json:"doc"`
		Plan string `json:"plan"`
	}
	var out []planDoc
	for _, name := range h.docNames() {
		doc, _ := h.coll.Document(name)
		p, err := doc.ExplainPlanContext(ctx, q, opts)
		if err != nil {
			status, _ := searchStatus(err)
			writeJSON(w, status, errorBody{Error: err.Error()})
			return
		}
		out = append(out, planDoc{Doc: name, Plan: p})
	}
	writeJSON(w, http.StatusOK, out)
}

type statsResponse struct {
	Documents int            `json:"documents"`
	Elements  int            `json:"elements"`
	PerDoc    map[string]int `json:"per_doc"`
	// Cache reports the collection-level query-result cache; DocCache
	// sums the per-document caches. Omitted when caching is disabled.
	Cache    *flexpath.CacheStats `json:"cache,omitempty"`
	DocCache *flexpath.CacheStats `json:"doc_cache,omitempty"`
	// PlanCache sums the per-document plan-template caches (chains +
	// memoized join plans). Omitted when disabled on every document.
	PlanCache *flexpath.PlanCacheStats `json:"plan_cache,omitempty"`
	// FTCache sums the per-document full-text result caches (evaluated
	// contains expressions; bounded per index).
	FTCache flexpath.CacheStats `json:"ft_cache"`
	// Planner aggregates the per-document cost-based planner state
	// behind the Auto algorithm.
	Planner flexpath.PlannerStats `json:"planner"`
	// Residency reports the mmap-backed serving state (resident vs
	// cold snapshot-backed documents, faults, evictions). Omitted when
	// no member is snapshot-backed and no residency cap is set.
	Residency *flexpath.ResidencyStats `json:"residency,omitempty"`
}

func (h *handler) stats(w http.ResponseWriter, _ *http.Request) {
	resp := statsResponse{
		Documents: h.coll.Len(),
		Elements:  h.coll.Nodes(),
		PerDoc:    map[string]int{},
	}
	// Members, not Document-per-name: a stats scrape must not fault
	// every cold document in (that would defeat the residency cap on
	// each scrape).
	for _, m := range h.coll.Members() {
		resp.PerDoc[m.Name] = m.Nodes
	}
	if rs := h.coll.ResidencyStats(); rs.Resident+rs.Cold > 0 || rs.Max > 0 {
		resp.Residency = &rs
	}
	if cs, ok := h.coll.CacheStats(); ok {
		resp.Cache = &cs
	}
	if ds, ok := h.coll.DocumentCacheStats(); ok {
		resp.DocCache = &ds
	}
	if ps, ok := h.coll.PlanCacheStats(); ok {
		resp.PlanCache = &ps
	}
	resp.FTCache = h.coll.FullTextCacheStats()
	resp.Planner = h.coll.PlannerStats()
	writeJSON(w, http.StatusOK, resp)
}

// metrics serves the Prometheus text exposition: the registry's query
// counters, latency histograms, stage histograms and in-flight gauge,
// followed by cache counter families assembled from the collection.
func (h *handler) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	h.reg.WritePrometheus(w)

	type cacheRow struct {
		name string
		cs   flexpath.CacheStats
		ok   bool
	}
	rows := []cacheRow{}
	if cs, ok := h.coll.CacheStats(); ok {
		rows = append(rows, cacheRow{"collection", cs, true})
	}
	if ds, ok := h.coll.DocumentCacheStats(); ok {
		rows = append(rows, cacheRow{"document", ds, true})
	}
	fmt.Fprintln(w, "# HELP flexpath_cache_hits_total Query-result cache hits.")
	fmt.Fprintln(w, "# TYPE flexpath_cache_hits_total counter")
	for _, row := range rows {
		fmt.Fprintf(w, "flexpath_cache_hits_total{cache=%q} %d\n", row.name, row.cs.Hits)
	}
	fmt.Fprintln(w, "# HELP flexpath_cache_misses_total Query-result cache misses.")
	fmt.Fprintln(w, "# TYPE flexpath_cache_misses_total counter")
	for _, row := range rows {
		fmt.Fprintf(w, "flexpath_cache_misses_total{cache=%q} %d\n", row.name, row.cs.Misses)
	}
	fmt.Fprintln(w, "# HELP flexpath_cache_evictions_total Query-result cache LRU evictions.")
	fmt.Fprintln(w, "# TYPE flexpath_cache_evictions_total counter")
	for _, row := range rows {
		fmt.Fprintf(w, "flexpath_cache_evictions_total{cache=%q} %d\n", row.name, row.cs.Evictions)
	}
	fmt.Fprintln(w, "# HELP flexpath_cache_entries Current query-result cache entries.")
	fmt.Fprintln(w, "# TYPE flexpath_cache_entries gauge")
	for _, row := range rows {
		fmt.Fprintf(w, "flexpath_cache_entries{cache=%q} %d\n", row.name, row.cs.Entries)
	}
	fmt.Fprintln(w, "# HELP flexpath_cache_capacity Effective query-result cache capacity.")
	fmt.Fprintln(w, "# TYPE flexpath_cache_capacity gauge")
	for _, row := range rows {
		fmt.Fprintf(w, "flexpath_cache_capacity{cache=%q} %d\n", row.name, row.cs.Capacity)
	}

	// Plan-template cache families: unlabeled (the caches are
	// per-document but sized and operated as one corpus-wide pool).
	pcs, _ := h.coll.PlanCacheStats()
	fmt.Fprintln(w, "# HELP flexpath_plancache_hits_total Plan-template cache hits (searches that skipped chain and plan construction).")
	fmt.Fprintln(w, "# TYPE flexpath_plancache_hits_total counter")
	fmt.Fprintf(w, "flexpath_plancache_hits_total %d\n", pcs.Hits)
	fmt.Fprintln(w, "# HELP flexpath_plancache_misses_total Plan-template cache misses (template built).")
	fmt.Fprintln(w, "# TYPE flexpath_plancache_misses_total counter")
	fmt.Fprintf(w, "flexpath_plancache_misses_total %d\n", pcs.Misses)
	fmt.Fprintln(w, "# HELP flexpath_plancache_evictions_total Plan templates displaced by the LRU policy.")
	fmt.Fprintln(w, "# TYPE flexpath_plancache_evictions_total counter")
	fmt.Fprintf(w, "flexpath_plancache_evictions_total %d\n", pcs.Evictions)
	fmt.Fprintln(w, "# HELP flexpath_plancache_dedups_total Lookups coalesced onto another goroutine's in-flight template build.")
	fmt.Fprintln(w, "# TYPE flexpath_plancache_dedups_total counter")
	fmt.Fprintf(w, "flexpath_plancache_dedups_total %d\n", pcs.Dedups)
	fmt.Fprintln(w, "# HELP flexpath_plancache_entries Current plan templates held across all documents.")
	fmt.Fprintln(w, "# TYPE flexpath_plancache_entries gauge")
	fmt.Fprintf(w, "flexpath_plancache_entries %d\n", pcs.Entries)
	fmt.Fprintln(w, "# HELP flexpath_plancache_capacity Effective plan-template capacity summed across all documents.")
	fmt.Fprintln(w, "# TYPE flexpath_plancache_capacity gauge")
	fmt.Fprintf(w, "flexpath_plancache_capacity %d\n", pcs.Capacity)

	ps := h.coll.PlannerStats()
	fmt.Fprintln(w, "# HELP flexpath_planner_choices_total Auto-mode dispatches by chosen algorithm.")
	fmt.Fprintln(w, "# TYPE flexpath_planner_choices_total counter")
	for _, k := range sortedKeys(ps.Choices) {
		fmt.Fprintf(w, "flexpath_planner_choices_total{algo=%q} %d\n", k, ps.Choices[k])
	}
	fmt.Fprintln(w, "# HELP flexpath_planner_reasons_total Auto-mode decisions by reason.")
	fmt.Fprintln(w, "# TYPE flexpath_planner_reasons_total counter")
	for _, k := range sortedKeys(ps.Reasons) {
		fmt.Fprintf(w, "flexpath_planner_reasons_total{reason=%q} %d\n", k, ps.Reasons[k])
	}
	fmt.Fprintln(w, "# HELP flexpath_planner_ns_per_unit Calibrated nanoseconds per predicted work unit.")
	fmt.Fprintln(w, "# TYPE flexpath_planner_ns_per_unit gauge")
	for _, k := range sortedKeys(ps.NsPerUnit) {
		fmt.Fprintf(w, "flexpath_planner_ns_per_unit{algo=%q} %g\n", k, ps.NsPerUnit[k])
	}
	fmt.Fprintln(w, "# HELP flexpath_planner_calibration_error Mean absolute log-ratio of actual to predicted run time (0 = exact).")
	fmt.Fprintln(w, "# TYPE flexpath_planner_calibration_error gauge")
	for _, k := range sortedKeys(ps.CalibrationError) {
		fmt.Fprintf(w, "flexpath_planner_calibration_error{algo=%q} %g\n", k, ps.CalibrationError[k])
	}
	fmt.Fprintln(w, "# HELP flexpath_planner_restart_rate EWMA of restarts per plan-based Auto run (feeds the DPO demotion guard).")
	fmt.Fprintln(w, "# TYPE flexpath_planner_restart_rate gauge")
	fmt.Fprintf(w, "flexpath_planner_restart_rate %g\n", ps.RestartRate)
	fmt.Fprintln(w, "# HELP flexpath_planner_observations_total Auto runs that fed the planner's calibrator.")
	fmt.Fprintln(w, "# TYPE flexpath_planner_observations_total counter")
	fmt.Fprintf(w, "flexpath_planner_observations_total %d\n", ps.Observations)

	fmt.Fprintln(w, "# HELP flexpath_server_inflight_requests Query requests admitted and currently executing.")
	fmt.Fprintln(w, "# TYPE flexpath_server_inflight_requests gauge")
	fmt.Fprintf(w, "flexpath_server_inflight_requests %d\n", h.srv.inFlight.Load())
	fmt.Fprintln(w, "# HELP flexpath_server_max_inflight Configured admission limit for query requests (0 = unlimited).")
	fmt.Fprintln(w, "# TYPE flexpath_server_max_inflight gauge")
	fmt.Fprintf(w, "flexpath_server_max_inflight %d\n", cap(h.sem))
	fmt.Fprintln(w, "# HELP flexpath_server_shed_total Query requests shed by the admission limit (503).")
	fmt.Fprintln(w, "# TYPE flexpath_server_shed_total counter")
	fmt.Fprintf(w, "flexpath_server_shed_total %d\n", h.srv.shed.Load())
	fmt.Fprintln(w, "# HELP flexpath_server_panics_total Handler panics recovered into 500 responses.")
	fmt.Fprintln(w, "# TYPE flexpath_server_panics_total counter")
	fmt.Fprintf(w, "flexpath_server_panics_total %d\n", h.srv.panics.Load())

	obs.WriteMetric(w, "flexpath_server_bulk_inflight", "gauge",
		"Bulk admin batches currently executing.", float64(h.srv.bulkInFlight.Load()))
	obs.WriteMetric(w, "flexpath_server_bulk_max_inflight", "gauge",
		"Configured bulk batch concurrency bound (0 = unlimited).", float64(cap(h.bulkSem)))
	obs.WriteMetric(w, "flexpath_server_bulk_rejected_total", "counter",
		"Bulk batches rejected by the concurrency bound (429).", float64(h.srv.bulkRejected.Load()))
	obs.WriteMetric(w, "flexpath_server_bulk_ops_applied_total", "counter",
		"Individual bulk operations applied.", float64(h.srv.bulkApplied.Load()))
	obs.WriteMetric(w, "flexpath_server_bulk_ops_failed_total", "counter",
		"Individual bulk operations that failed.", float64(h.srv.bulkFailed.Load()))

	if h.dur != nil {
		s := h.dur.Stats()
		obs.WriteMetric(w, "flexpath_wal_appended_records_total", "counter",
			"Mutation records appended to the write-ahead log.", float64(s.AppendedRecords))
		obs.WriteMetric(w, "flexpath_wal_fsyncs_total", "counter",
			"fsync calls on the write-ahead log.", float64(s.Fsyncs))
		obs.WriteMetric(w, "flexpath_wal_fsynced_records_total", "counter",
			"Records made durable; ahead of fsyncs_total when group commit is batching.", float64(s.FsyncedRecords))
		obs.WriteMetric(w, "flexpath_wal_replayed_records_total", "counter",
			"Records replayed from the log during boot recovery.", float64(s.ReplayedRecords))
		obs.WriteMetric(w, "flexpath_wal_torn_bytes_total", "counter",
			"Torn tail bytes truncated during boot recovery.", float64(s.TornBytesTruncated))
		obs.WriteMetric(w, "flexpath_wal_checkpoints_total", "counter",
			"Checkpoints completed by this process.", float64(s.Checkpoints))
		obs.WriteMetric(w, "flexpath_wal_checkpoint_errors_total", "counter",
			"Checkpoint attempts that failed.", float64(s.CheckpointErrors))
		obs.WriteMetric(w, "flexpath_wal_checkpoint_lsn", "gauge",
			"LSN of the checkpoint boot recovery started from (0 = none).", float64(s.CheckpointLSN))
		obs.WriteMetric(w, "flexpath_wal_last_checkpoint_duration_seconds", "gauge",
			"Wall time of the most recent checkpoint.", s.LastCheckpointDuration.Seconds())
		obs.WriteMetric(w, "flexpath_wal_log_bytes", "gauge",
			"Bytes across live write-ahead log segments.", float64(s.LogBytes))
		obs.WriteMetric(w, "flexpath_wal_log_segments", "gauge",
			"Live write-ahead log segment files.", float64(s.LogSegments))
	}

	rs := h.coll.ResidencyStats()
	obs.WriteMetric(w, "flexpath_resident_docs", "gauge",
		"Snapshot-backed documents currently decoded and searchable.", float64(rs.Resident))
	obs.WriteMetric(w, "flexpath_resident_docs_cold", "gauge",
		"Snapshot-backed documents currently cold (mapped, not decoded).", float64(rs.Cold))
	obs.WriteMetric(w, "flexpath_resident_docs_pinned", "gauge",
		"Documents with no snapshot backing (always resident, exempt from the cap).", float64(rs.Pinned))
	obs.WriteMetric(w, "flexpath_resident_docs_max", "gauge",
		"Configured residency cap for snapshot-backed documents (0 = unbounded).", float64(rs.Max))
	obs.WriteMetric(w, "flexpath_resident_faults_total", "counter",
		"Cold documents decoded on demand by a search.", float64(rs.Faults))
	obs.WriteMetric(w, "flexpath_resident_evictions_total", "counter",
		"Documents evicted by the residency cap (decoded state dropped, mapping kept).", float64(rs.Evictions))
	obs.WriteMetric(w, "flexpath_resident_fault_seconds_total", "counter",
		"Time callers spent faulting cold documents in (decoding, or waiting for the search that was).",
		time.Duration(rs.FaultNanos).Seconds())

	fmt.Fprintln(w, "# HELP flexpath_documents Documents being served.")
	fmt.Fprintln(w, "# TYPE flexpath_documents gauge")
	fmt.Fprintf(w, "flexpath_documents %d\n", h.coll.Len())
	fmt.Fprintln(w, "# HELP flexpath_elements Total indexed element nodes.")
	fmt.Fprintln(w, "# TYPE flexpath_elements gauge")
	fmt.Fprintf(w, "flexpath_elements %d\n", h.coll.Nodes())
}

type slowEntryJSON struct {
	Time        string             `json:"time"`
	Query       string             `json:"query"`
	Algo        string             `json:"algo"`
	Scheme      string             `json:"scheme"`
	Status      string             `json:"status"`
	K           int                `json:"k"`
	Relaxations int                `json:"relaxations"`
	CacheHit    bool               `json:"cache_hit"`
	TotalMS     float64            `json:"total_ms"`
	StagesMS    map[string]float64 `json:"stages_ms"`
}

type latencySummaryJSON struct {
	Algo    string  `json:"algo"`
	Count   uint64  `json:"count"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
	MeanMS  float64 `json:"mean_ms"`
	TotalMS float64 `json:"total_ms"`
}

type slowlogResponse struct {
	ThresholdMS float64              `json:"threshold_ms"`
	Entries     []slowEntryJSON      `json:"entries"`
	Latency     []latencySummaryJSON `json:"latency"`
}

// slowlog serves the N slowest recent queries with their per-stage time
// breakdown, plus per-algorithm latency quantiles (p50/p95/p99 are
// bucket upper bounds, exact within a factor of two).
func (h *handler) slowlog(w http.ResponseWriter, r *http.Request) {
	n := 32
	if ns := r.URL.Query().Get("n"); ns != "" {
		if v, err := strconv.Atoi(ns); err == nil && v > 0 && v <= 1024 {
			n = v
		}
	}
	log := h.reg.SlowLog()
	resp := slowlogResponse{
		ThresholdMS: float64(log.Threshold()) / 1e6,
		Entries:     []slowEntryJSON{},
		Latency:     []latencySummaryJSON{},
	}
	stageNames := obs.StageNames()
	for _, e := range log.Top(n) {
		stages := make(map[string]float64, len(stageNames))
		for i, name := range stageNames {
			stages[name] = float64(e.Stages[i]) / 1e6
		}
		resp.Entries = append(resp.Entries, slowEntryJSON{
			Time:        e.Time.UTC().Format(time.RFC3339Nano),
			Query:       e.Query,
			Algo:        e.Algo,
			Scheme:      e.Scheme,
			Status:      e.Status,
			K:           e.K,
			Relaxations: e.Relaxations,
			CacheHit:    e.CacheHit,
			TotalMS:     float64(e.Total) / 1e6,
			StagesMS:    stages,
		})
	}
	algos, hists := h.reg.LatencyByAlgo()
	for i, algo := range algos {
		s := hists[i]
		resp.Latency = append(resp.Latency, latencySummaryJSON{
			Algo:    algo,
			Count:   s.Count,
			P50MS:   float64(s.Quantile(0.50)) / 1e6,
			P95MS:   float64(s.Quantile(0.95)) / 1e6,
			P99MS:   float64(s.Quantile(0.99)) / 1e6,
			MeanMS:  float64(s.Mean()) / 1e6,
			TotalMS: float64(s.Sum) / 1e6,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxAdminBody bounds an /admin/add or /admin/replace document upload.
const maxAdminBody = 64 << 20

// adminResponse reports the corpus state after a mutation.
type adminResponse struct {
	Status    string `json:"status"`
	Name      string `json:"name"`
	Documents int    `json:"documents"`
	Elements  int    `json:"elements"`
}

// adminName enforces the shared preconditions of the mutation endpoints:
// POST only, with a non-empty name parameter.
func adminName(w http.ResponseWriter, r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return "", false
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		badRequest(w, "missing name parameter")
		return "", false
	}
	return name, true
}

// adminDoc parses the request body as an XML document (or snapshot-free
// XML only: uploads are always parsed, never trusted as binary).
func (h *handler) adminDoc(w http.ResponseWriter, r *http.Request) (*flexpath.Document, bool) {
	doc, err := flexpath.Load(http.MaxBytesReader(w, r.Body, maxAdminBody))
	if err != nil {
		badRequest(w, "bad document: "+err.Error())
		return nil, false
	}
	return doc, true
}

// adminBody reads the raw (bounded) upload body for the durable path,
// which logs the exact bytes before parsing them.
func adminBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxAdminBody))
	if err != nil {
		badRequest(w, "reading body: "+err.Error())
		return nil, false
	}
	return body, true
}

// durableStatus maps a DurableCollection mutation error to an HTTP
// status: precondition sentinels become client errors, anything else —
// an I/O failure in the log — is a 500.
func durableStatus(err error) int {
	switch {
	case errors.Is(err, flexpath.ErrDocumentExists):
		return http.StatusConflict
	case errors.Is(err, flexpath.ErrNoDocument):
		return http.StatusNotFound
	case errors.Is(err, flexpath.ErrBadDocument):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (h *handler) adminOK(w http.ResponseWriter, name string) {
	writeJSON(w, http.StatusOK, adminResponse{
		Status: "ok", Name: name,
		Documents: h.coll.Len(), Elements: h.coll.Nodes(),
	})
}

// adminAdd inserts the posted XML document under ?name=.
func (h *handler) adminAdd(w http.ResponseWriter, r *http.Request) {
	name, ok := adminName(w, r)
	if !ok {
		return
	}
	if h.dur != nil {
		body, ok := adminBody(w, r)
		if !ok {
			return
		}
		if err := h.dur.Add(name, body); err != nil {
			writeJSON(w, durableStatus(err), errorBody{Error: err.Error()})
			return
		}
		h.adminOK(w, name)
		return
	}
	doc, ok := h.adminDoc(w, r)
	if !ok {
		return
	}
	if err := h.coll.Add(name, doc); err != nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	h.adminOK(w, name)
}

// adminRemove deletes the document named by ?name=.
func (h *handler) adminRemove(w http.ResponseWriter, r *http.Request) {
	name, ok := adminName(w, r)
	if !ok {
		return
	}
	if h.dur != nil {
		if err := h.dur.Remove(name); err != nil {
			writeJSON(w, durableStatus(err), errorBody{Error: err.Error()})
			return
		}
		h.adminOK(w, name)
		return
	}
	if err := h.coll.Remove(name); err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	h.adminOK(w, name)
}

// adminReplace swaps the document named by ?name= for the posted XML.
func (h *handler) adminReplace(w http.ResponseWriter, r *http.Request) {
	name, ok := adminName(w, r)
	if !ok {
		return
	}
	if h.dur != nil {
		body, ok := adminBody(w, r)
		if !ok {
			return
		}
		if err := h.dur.Replace(name, body); err != nil {
			writeJSON(w, durableStatus(err), errorBody{Error: err.Error()})
			return
		}
		h.adminOK(w, name)
		return
	}
	doc, ok := h.adminDoc(w, r)
	if !ok {
		return
	}
	if err := h.coll.Replace(name, doc); err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	h.adminOK(w, name)
}

// maxBulkBody bounds one /admin/bulk batch upload.
const maxBulkBody = 256 << 20

// bulkOp is one line of an NDJSON /admin/bulk batch.
type bulkOp struct {
	Op   string `json:"op"`
	Name string `json:"name"`
	Doc  string `json:"doc,omitempty"`
}

type bulkOpError struct {
	Line  int    `json:"line"`
	Name  string `json:"name,omitempty"`
	Error string `json:"error"`
}

type bulkResponse struct {
	Applied   int           `json:"applied"`
	Failed    int           `json:"failed"`
	Errors    []bulkOpError `json:"errors,omitempty"`
	Documents int           `json:"documents"`
	Elements  int           `json:"elements"`
}

// adminBulk applies an NDJSON batch of mutations — one
// {"op","name","doc"} object per line, with ops add, replace, upsert and
// remove (the latter two retry-safe, the right verbs for ingest
// pipelines that resend after ambiguous failures). At most maxBulk
// batches execute concurrently; the bound is checked before the body is
// read, so a rejected client gets its 429 without uploading anything.
// The response always carries per-line errors with a 200: partial
// application is reported, not rolled back (each line is individually
// durable by the time it is counted).
func (h *handler) adminBulk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	if h.bulkSem != nil {
		select {
		case h.bulkSem <- struct{}{}:
			defer func() { <-h.bulkSem }()
		default:
			h.srv.bulkRejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests,
				errorBody{Error: "too many bulk batches in flight, retry later"})
			return
		}
	}
	h.srv.bulkInFlight.Add(1)
	defer h.srv.bulkInFlight.Add(-1)

	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBulkBody))
	var resp bulkResponse
	for line := 1; ; line++ {
		var op bulkOp
		if err := dec.Decode(&op); err == io.EOF {
			break
		} else if err != nil {
			// A malformed line leaves no way to resync the stream; report
			// and stop rather than misapply the remainder.
			resp.Failed++
			h.srv.bulkFailed.Add(1)
			resp.Errors = append(resp.Errors, bulkOpError{Line: line, Error: "bad batch line: " + err.Error()})
			break
		}
		if err := h.applyBulkOp(op); err != nil {
			resp.Failed++
			h.srv.bulkFailed.Add(1)
			resp.Errors = append(resp.Errors, bulkOpError{Line: line, Name: op.Name, Error: err.Error()})
			continue
		}
		resp.Applied++
		h.srv.bulkApplied.Add(1)
	}
	resp.Documents = h.coll.Len()
	resp.Elements = h.coll.Nodes()
	writeJSON(w, http.StatusOK, resp)
}

// applyBulkOp routes one batch line through the durable collection when
// one is configured, directly to the in-memory collection otherwise.
func (h *handler) applyBulkOp(op bulkOp) error {
	if op.Name == "" {
		return errors.New("missing name")
	}
	if h.dur != nil {
		switch op.Op {
		case "add":
			return h.dur.Add(op.Name, []byte(op.Doc))
		case "replace":
			return h.dur.Replace(op.Name, []byte(op.Doc))
		case "upsert":
			return h.dur.Upsert(op.Name, []byte(op.Doc))
		case "remove":
			_, err := h.dur.RemoveIfPresent(op.Name)
			return err
		}
		return fmt.Errorf("unknown op %q", op.Op)
	}
	switch op.Op {
	case "add", "replace", "upsert":
		doc, err := flexpath.LoadString(op.Doc)
		if err != nil {
			return err
		}
		if op.Op == "add" {
			return h.coll.Add(op.Name, doc)
		}
		if op.Op == "replace" {
			return h.coll.Replace(op.Name, doc)
		}
		// Has, not Document: existence checks must not fault a cold
		// member in just to overwrite or delete it.
		if h.coll.Has(op.Name) {
			return h.coll.Replace(op.Name, doc)
		}
		return h.coll.Add(op.Name, doc)
	case "remove":
		if !h.coll.Has(op.Name) {
			return nil
		}
		return h.coll.Remove(op.Name)
	}
	return fmt.Errorf("unknown op %q", op.Op)
}

func (h *handler) docNames() []string { return h.coll.Names() }

// sortedKeys returns a map's keys in sorted order, for deterministic
// metric rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
