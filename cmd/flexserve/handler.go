package main

import (
	"bytes"
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
	"sync"
	"sync/atomic"
	"time"

	"flexpath"
	"flexpath/internal/obs"
	"flexpath/internal/serveutil"
)

// serverMetrics are the serving-robustness counters exported as the
// flexpath_server_* metric families: requests admitted and executing,
// requests shed by the admission limit, and handler panics recovered
// into 500s.
type serverMetrics struct {
	inFlight atomic.Int64
	shed     atomic.Uint64
	panics   atomic.Uint64
	// bulk ingest counters (flexpath_server_bulk_*): batches rejected by
	// the concurrency bound, and individual operations applied / failed
	// across all batches.
	bulkRejected atomic.Uint64
	bulkApplied  atomic.Uint64
	bulkFailed   atomic.Uint64
	// choices counts successful Auto searches by the algorithm that ran
	// (flexpath_planner_choices_total), under choicesMu.
	choicesMu sync.Mutex
	choices   map[string]uint64
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
	// bulkSem, when non-nil, bounds concurrently executing /admin/bulk
	// batches; excess batches are rejected with 429 before their body is
	// read, so backpressure costs the client no upload bandwidth.
	bulkSem chan struct{}
	srv     serverMetrics
}

// handlerConfig configures optional serving features.
type handlerConfig struct {
	timeout time.Duration
	// pprof exposes net/http/pprof under /debug/pprof/.
	pprof bool
	// maxInFlight caps concurrently executing query requests (/search,
	// /relaxations, /plan); excess requests are shed with 503.
	// 0 means unlimited.
	maxInFlight int
	// admin exposes the corpus-mutation endpoints under /admin/.
	admin bool
	// maxBulk caps concurrently executing /admin/bulk batches; excess is
	// rejected with 429. 0 means unlimited.
	maxBulk int
}

// newHandlerConfig builds the full serving handler and returns the
// registry so the caller (main, tests) can inspect it.
func newHandlerConfig(coll *flexpath.Collection, cfg handlerConfig) (http.Handler, *obs.Registry) {
	h := &handler{
		coll:    coll,
		mux:     http.NewServeMux(),
		timeout: cfg.timeout,
		reg:     obs.NewRegistry(),
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
		h.mux.HandleFunc("/admin/add", h.admin(put(coll.Add)))
		h.mux.HandleFunc("/admin/replace", h.admin(put(coll.Replace)))
		h.mux.HandleFunc("/admin/remove", h.admin(func(name string, _ []byte) error { return coll.Remove(name) }))
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
			serveutil.WriteJSON(w, http.StatusInternalServerError, serveutil.ErrorBody{Error: "internal server error"})
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
				serveutil.WriteJSON(w, http.StatusServiceUnavailable,
					serveutil.ErrorBody{Error: "server overloaded: max in-flight queries reached, retry later"})
				return
			}
		}
		h.srv.inFlight.Add(1)
		defer h.srv.inFlight.Add(-1)
		next(w, r)
	}
}

func badRequest(w http.ResponseWriter, msg string) {
	serveutil.WriteJSON(w, http.StatusBadRequest, serveutil.ErrorBody{Error: msg})
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

func (h *handler) search(w http.ResponseWriter, r *http.Request) {
	tParse := time.Now()
	req, err := serveutil.ParseSearch(r.URL.Query())
	parseDur := time.Since(tParse)
	if err != nil {
		badRequest(w, err.Error())
		return
	}
	q, opts := req.Query, req.Opts
	// The request context carries client disconnects; the configured
	// timeout turns runaway evaluations into 504s instead of holding a
	// worker goroutine for an unbounded join. The span rides the same
	// context so the library layers record per-stage latency into it.
	ctx, cancel := h.requestContext(r)
	defer cancel()
	qs := q.String()
	// The span starts where parsing did, so the parse stage recorded
	// into it lies inside its duration.
	span := h.reg.StartSpan(tParse, qs, opts.Algorithm.String(), opts.Scheme.String(), opts.K)
	span.Rec(obs.StageParse, parseDur)
	ctx = obs.WithSpan(ctx, span)

	var m flexpath.Metrics
	opts.Metrics = &m
	start := time.Now()
	answers, err := h.coll.SearchContext(ctx, q, opts)
	status, spanStatus := searchStatus(err)
	span.Finish(spanStatus)
	if err != nil {
		serveutil.WriteJSON(w, status, serveutil.ErrorBody{Error: err.Error()})
		return
	}
	if opts.Algorithm == flexpath.Auto {
		h.srv.choicesMu.Lock()
		if h.srv.choices == nil {
			h.srv.choices = map[string]uint64{}
		}
		h.srv.choices[m.Algorithm]++
		h.srv.choicesMu.Unlock()
	}
	serveutil.WriteJSON(w, http.StatusOK, serveutil.SearchResponse{
		Query:      qs,
		Algo:       m.Algorithm,
		AlgoReason: m.AlgoReason,
		ElapsedMS:  float64(time.Since(start)) / 1e6,
		Answers:    req.Answers(answers),
	})
}

type relaxationsResponse struct {
	Query string `json:"query"`
	Docs  []struct {
		Doc   string                    `json:"doc"`
		Steps []flexpath.RelaxationStep `json:"steps"`
	} `json:"docs"`
}

func (h *handler) relaxations(w http.ResponseWriter, r *http.Request) {
	// ParseSearch, not a bespoke parser: /relaxations accepts the same
	// parameters /search does, so the chain it reports (weighted
	// penalties included) is the chain that search evaluates.
	req, err := serveutil.ParseSearch(r.URL.Query())
	if err != nil {
		badRequest(w, err.Error())
		return
	}
	// Honor the request context and the configured timeout like
	// /search: chain building over a pathological document must not
	// hold this worker past the deadline.
	ctx, cancel := h.requestContext(r)
	defer cancel()
	resp := relaxationsResponse{Query: req.Query.String()}
	if h.eachDoc(w, func(name string, doc *flexpath.Document) error {
		steps, err := doc.Relaxations(ctx, req.Query, req.Opts)
		resp.Docs = append(resp.Docs, struct {
			Doc   string                    `json:"doc"`
			Steps []flexpath.RelaxationStep `json:"steps"`
		}{Doc: name, Steps: steps})
		return err
	}) {
		serveutil.WriteJSON(w, http.StatusOK, resp)
	}
}

// eachDoc calls fn on every member document in insertion order, skipping
// members removed since the name list was read. It writes the error
// response and reports false when a member fails to fault in (a JSON 500
// naming it, as /search reports it) or fn fails.
func (h *handler) eachDoc(w http.ResponseWriter, fn func(name string, doc *flexpath.Document) error) bool {
	for _, name := range h.docNames() {
		doc, ok := h.coll.Document(name)
		if !ok {
			if !h.coll.Has(name) {
				continue
			}
			serveutil.WriteJSON(w, http.StatusInternalServerError, serveutil.ErrorBody{Error: fmt.Sprintf("flexpath: document %q: unavailable (fault-in failed)", name)})
			return false
		}
		if err := fn(name, doc); err != nil {
			status, _ := searchStatus(err)
			serveutil.WriteJSON(w, status, serveutil.ErrorBody{Error: err.Error()})
			return false
		}
	}
	return true
}

func (h *handler) plan(w http.ResponseWriter, r *http.Request) {
	req, err := serveutil.ParseSearch(r.URL.Query())
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
	if h.eachDoc(w, func(name string, doc *flexpath.Document) error {
		p, err := doc.ExplainPlan(ctx, req.Query, req.Opts)
		out = append(out, planDoc{Doc: name, Plan: p})
		return err
	}) {
		serveutil.WriteJSON(w, http.StatusOK, out)
	}
}

type statsResponse struct {
	Documents int            `json:"documents"`
	Elements  int            `json:"elements"`
	PerDoc    map[string]int `json:"per_doc"`
	// Cache reports the collection's query-result cache, the one every
	// search uses. Omitted when caching is disabled.
	Cache *flexpath.CacheStats `json:"cache,omitempty"`
	// PlanCache sums the per-document plan-template caches (chains +
	// memoized join plans), departed documents' counters included.
	// Omitted when no member is decoded.
	PlanCache *flexpath.PlanCacheStats `json:"plan_cache,omitempty"`
	// Residency reports the mmap-backed serving state (decoded vs cold
	// snapshot-backed documents, faults). Omitted when no member is
	// snapshot-backed.
	Residency *flexpath.ResidencyStats `json:"residency,omitempty"`
}

func (h *handler) stats(w http.ResponseWriter, _ *http.Request) {
	resp := statsResponse{
		Documents: h.coll.Len(),
		Elements:  h.coll.Nodes(),
		PerDoc:    map[string]int{},
	}
	// Members, not Document-per-name: a stats scrape must not fault
	// every cold document in.
	for _, m := range h.coll.Members() {
		resp.PerDoc[m.Name] = m.Nodes
	}
	if rs := h.coll.ResidencyStats(); rs.Resident+rs.Cold > 0 {
		resp.Residency = &rs
	}
	if cs, ok := h.coll.CacheStats(); ok {
		resp.Cache = &cs
	}
	if ps, ok := h.coll.PlanCacheStats(); ok {
		resp.PlanCache = &ps
	}
	serveutil.WriteJSON(w, http.StatusOK, resp)
}

// metrics serves the Prometheus text exposition: the registry's query
// counters, latency histograms and stage histograms, followed by the
// cache, server, WAL and residency families. Each family is one fact
// that a reader needs (README "Observability" names the reader).
func (h *handler) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	h.reg.WritePrometheus(w)

	// Query-result cache families: one row, the collection's cache, and
	// none while it is disabled.
	cs, cacheOn := h.coll.CacheStats()
	for _, f := range []struct {
		name, typ, help string
		v               uint64
	}{
		{"flexpath_cache_hits_total", "counter", "Query-result cache hits.", cs.Hits},
		{"flexpath_cache_misses_total", "counter", "Query-result cache misses.", cs.Misses},
	} {
		var samples []obs.Sample
		if cacheOn {
			samples = []obs.Sample{{Labels: []string{"cache", "collection"}, Value: f.v}}
		}
		obs.WriteFamily(w, f.name, f.typ, f.help, samples...)
	}

	// Plan-template cache families: unlabeled (the caches are
	// per-document but sized and operated as one corpus-wide pool).
	pcs, _ := h.coll.PlanCacheStats()
	obs.WriteFamily(w, "flexpath_plancache_hits_total", "counter",
		"Plan-template cache hits (searches that skipped chain and plan construction).", obs.Sample{Value: pcs.Hits})
	obs.WriteFamily(w, "flexpath_plancache_misses_total", "counter",
		"Plan-template cache misses (template built).", obs.Sample{Value: pcs.Misses})
	obs.WriteFamily(w, "flexpath_plancache_entries", "gauge",
		"Current plan templates held across all documents.", obs.Sample{Value: pcs.Entries})
	obs.WriteFamily(w, "flexpath_plancache_capacity", "gauge",
		"Effective plan-template capacity summed across all documents.", obs.Sample{Value: pcs.Capacity})

	h.srv.choicesMu.Lock()
	choices := labelled("algo", h.srv.choices)
	h.srv.choicesMu.Unlock()
	obs.WriteFamily(w, "flexpath_planner_choices_total", "counter",
		"Auto searches by the algorithm that ran.", choices...)

	obs.WriteFamily(w, "flexpath_server_inflight_requests", "gauge",
		"Query requests admitted and currently executing.", obs.Sample{Value: h.srv.inFlight.Load()})
	obs.WriteFamily(w, "flexpath_server_max_inflight", "gauge",
		"Configured admission limit for query requests (0 = unlimited).", obs.Sample{Value: cap(h.sem)})
	obs.WriteFamily(w, "flexpath_server_shed_total", "counter",
		"Query requests shed by the admission limit (503).", obs.Sample{Value: h.srv.shed.Load()})
	obs.WriteFamily(w, "flexpath_server_panics_total", "counter",
		"Handler panics recovered into 500 responses.", obs.Sample{Value: h.srv.panics.Load()})

	obs.WriteFamily(w, "flexpath_server_bulk_rejected_total", "counter",
		"Bulk batches rejected by the concurrency bound (429).", obs.Sample{Value: h.srv.bulkRejected.Load()})
	obs.WriteFamily(w, "flexpath_server_bulk_ops_applied_total", "counter",
		"Individual bulk operations applied.", obs.Sample{Value: h.srv.bulkApplied.Load()})
	obs.WriteFamily(w, "flexpath_server_bulk_ops_failed_total", "counter",
		"Individual bulk operations that failed.", obs.Sample{Value: h.srv.bulkFailed.Load()})

	if s, ok := h.coll.DurableStats(); ok {
		obs.WriteFamily(w, "flexpath_wal_appended_records_total", "counter",
			"Mutation records appended to the write-ahead log.", obs.Sample{Value: s.AppendedRecords})
		obs.WriteFamily(w, "flexpath_wal_fsyncs_total", "counter",
			"fsync calls on the write-ahead log.", obs.Sample{Value: s.Fsyncs})
		obs.WriteFamily(w, "flexpath_wal_fsynced_records_total", "counter",
			"Records made durable; ahead of fsyncs_total when group commit is batching.", obs.Sample{Value: s.FsyncedRecords})
		obs.WriteFamily(w, "flexpath_wal_replayed_records_total", "counter",
			"Records replayed from the log during boot recovery.", obs.Sample{Value: s.ReplayedRecords})
		obs.WriteFamily(w, "flexpath_wal_torn_bytes_total", "counter",
			"Torn tail bytes truncated during boot recovery.", obs.Sample{Value: s.TornBytesTruncated})
		obs.WriteFamily(w, "flexpath_wal_checkpoints_total", "counter",
			"Checkpoints completed by this process.", obs.Sample{Value: s.Checkpoints})
		obs.WriteFamily(w, "flexpath_wal_checkpoint_errors_total", "counter",
			"Checkpoint attempts that failed.", obs.Sample{Value: s.CheckpointErrors})
		obs.WriteFamily(w, "flexpath_wal_checkpoint_lsn", "gauge",
			"LSN of the checkpoint boot recovery started from (0 = none).", obs.Sample{Value: s.CheckpointLSN})
		obs.WriteFamily(w, "flexpath_wal_last_checkpoint_duration_seconds", "gauge",
			"Wall time of the most recent checkpoint.", obs.Sample{Value: s.LastCheckpointDuration.Seconds()})
	}

	rs := h.coll.ResidencyStats()
	obs.WriteFamily(w, "flexpath_resident_docs", "gauge",
		"Snapshot-backed documents decoded by a search.", obs.Sample{Value: rs.Resident})
	obs.WriteFamily(w, "flexpath_resident_faults_total", "counter",
		"Cold documents decoded on demand by a search.", obs.Sample{Value: rs.Faults})
	obs.WriteFamily(w, "flexpath_resident_fault_seconds_total", "counter",
		"Time callers spent faulting cold documents in (decoding, or waiting for the search that was).",
		obs.Sample{Value: time.Duration(rs.FaultNanos).Seconds()})
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

type slowlogResponse struct {
	Entries []slowEntryJSON `json:"entries"`
}

// slowlog serves the N slowest recent queries with their per-stage time
// breakdown. Latency by algorithm is /metrics'
// flexpath_query_duration_seconds.
func (h *handler) slowlog(w http.ResponseWriter, r *http.Request) {
	n := 32
	if ns := r.URL.Query().Get("n"); ns != "" {
		if v, err := strconv.Atoi(ns); err == nil && v > 0 && v <= 1024 {
			n = v
		}
	}
	resp := slowlogResponse{Entries: []slowEntryJSON{}}
	stageNames := obs.StageNames()
	for _, e := range h.reg.SlowLog().Top(n) {
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
	serveutil.WriteJSON(w, http.StatusOK, resp)
}

// maxAdminBody bounds an /admin/add, /admin/replace or /admin/remove upload.
const maxAdminBody = 64 << 20

// adminResponse reports the corpus state after a mutation.
type adminResponse struct {
	Status    string `json:"status"`
	Name      string `json:"name"`
	Documents int    `json:"documents"`
	Elements  int    `json:"elements"`
}

// errBadDocument reports a body that failed to parse; the collection
// never saw it.
var errBadDocument = errors.New("bad document")

// mutationStatus maps a mutation error to an HTTP status, the same in
// both modes: precondition sentinels and unparsable bodies become client
// errors, anything else — an I/O failure in the log — is a 500.
func mutationStatus(err error) int {
	switch {
	case errors.Is(err, flexpath.ErrDocumentExists):
		return http.StatusConflict
	case errors.Is(err, flexpath.ErrNoDocument):
		return http.StatusNotFound
	case errors.Is(err, errBadDocument):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// admin serves one mutation endpoint: a POST with a non-empty ?name=,
// whose bounded body apply receives (empty for a removal).
func (h *handler) admin(apply func(name string, body []byte) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			serveutil.WriteJSON(w, http.StatusMethodNotAllowed, serveutil.ErrorBody{Error: "POST required"})
			return
		}
		name := r.URL.Query().Get("name")
		if name == "" {
			badRequest(w, "missing name parameter")
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxAdminBody))
		if err != nil {
			badRequest(w, "reading body: "+err.Error())
			return
		}
		if err := apply(name, body); err != nil {
			serveutil.WriteJSON(w, mutationStatus(err), serveutil.ErrorBody{Error: err.Error()})
			return
		}
		serveutil.WriteJSON(w, http.StatusOK, adminResponse{
			Status: "ok", Name: name,
			Documents: h.coll.Len(), Elements: h.coll.Nodes(),
		})
	}
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
		serveutil.WriteJSON(w, http.StatusMethodNotAllowed, serveutil.ErrorBody{Error: "POST required"})
		return
	}
	if h.bulkSem != nil {
		select {
		case h.bulkSem <- struct{}{}:
			defer func() { <-h.bulkSem }()
		default:
			h.srv.bulkRejected.Add(1)
			w.Header().Set("Retry-After", "1")
			serveutil.WriteJSON(w, http.StatusTooManyRequests,
				serveutil.ErrorBody{Error: "too many bulk batches in flight, retry later"})
			return
		}
	}
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
	serveutil.WriteJSON(w, http.StatusOK, resp)
}

// applyBulkOp applies one batch line: one call into the collection.
func (h *handler) applyBulkOp(op bulkOp) error {
	if op.Name == "" {
		return errors.New("missing name")
	}
	doc := []byte(op.Doc)
	switch op.Op {
	case "add":
		return put(h.coll.Add)(op.Name, doc)
	case "replace":
		return put(h.coll.Replace)(op.Name, doc)
	case "upsert":
		return put(h.coll.Upsert)(op.Name, doc)
	case "remove":
		_, err := h.coll.RemoveIfPresent(op.Name)
		return err
	}
	return fmt.Errorf("unknown op %q", op.Op)
}

// put returns the writer of a document verb: it parses an uploaded body
// as XML, reporting a failure as errBadDocument, and hands the document
// to the collection's own verb, which resolves it against the live
// membership under the collection's lock (and, with -wal, logs it), so
// the handler needs no lock and both modes answer alike.
func put(verb func(string, *flexpath.Document) error) func(name string, body []byte) error {
	return func(name string, body []byte) error {
		doc, err := flexpath.Load(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("%w: %w", errBadDocument, err)
		}
		return verb(name, doc)
	}
}

func (h *handler) docNames() []string { return h.coll.Names() }

// labelled renders a map as one sample per key, labelled key=<map key>,
// in sorted key order for deterministic metric rendering.
func labelled[V any](key string, m map[string]V) []obs.Sample {
	samples := make([]obs.Sample, 0, len(m))
	for k, v := range m {
		samples = append(samples, obs.Sample{Labels: []string{key, k}, Value: v})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].Labels[1] < samples[j].Labels[1] })
	return samples
}
