package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flexpath/internal/chash"
	"flexpath/internal/merge"
	"flexpath/internal/obs"
	"flexpath/internal/rank"
	"flexpath/internal/serveutil"
)

const (
	// maxShardBody bounds one shard's decoded /search or /stats response.
	maxShardBody = 32 << 20
	// maxAdminBody bounds a proxied /admin document upload, matching the
	// shard-side cap.
	maxAdminBody = 64 << 20
	// backoffBase is the first retry delay; attempt n waits
	// backoffBase<<n plus up to 100% jitter.
	backoffBase = 25 * time.Millisecond
)

// routerConfig configures a router.
type routerConfig struct {
	shardTimeout time.Duration
	retries      int
}

// shardMetrics are one shard's flexpath_router_shard_* series.
type shardMetrics struct {
	latency  *obs.Histogram
	errors   atomic.Uint64 // failed attempts other than deadline hits
	timeouts atomic.Uint64 // attempts that hit the per-shard deadline
	retries  atomic.Uint64 // retry attempts issued after connection errors
}

// routerMetrics are the flexpath_router_* counters.
type routerMetrics struct {
	ok         atomic.Uint64 // queries answered by every shard
	partial    atomic.Uint64 // queries answered by a strict subset
	failed     atomic.Uint64 // queries where every shard failed (502)
	badRequest atomic.Uint64
	panics     atomic.Uint64
	shards     []shardMetrics
}

// router fans queries out to every shard and merges the responses;
// corpus mutations are routed to the consistent-hash owner of the
// document name.
type router struct {
	shards       []string
	ring         *chash.Ring
	client       *http.Client
	mux          *http.ServeMux
	shardTimeout time.Duration
	retries      int
	met          routerMetrics
}

func newRouter(shards []string, cfg routerConfig) (*router, error) {
	ring, err := chash.New(shards, 0)
	if err != nil {
		return nil, err
	}
	if cfg.shardTimeout <= 0 {
		cfg.shardTimeout = 5 * time.Second
	}
	if cfg.retries < 0 {
		cfg.retries = 0
	}
	rt := &router{
		shards: append([]string(nil), shards...),
		ring:   ring,
		client: &http.Client{
			// No client-level timeout: per-attempt deadlines come from
			// the request context so /admin uploads are not clipped.
			Transport: &http.Transport{MaxIdleConnsPerHost: 16},
		},
		mux:          http.NewServeMux(),
		shardTimeout: cfg.shardTimeout,
		retries:      cfg.retries,
	}
	rt.met.shards = make([]shardMetrics, len(shards))
	for i := range rt.met.shards {
		rt.met.shards[i].latency = obs.NewHistogram()
	}
	rt.mux.HandleFunc("/search", rt.search)
	rt.mux.HandleFunc("/stats", rt.stats)
	rt.mux.HandleFunc("/metrics", rt.metrics)
	rt.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n")) //nolint:errcheck
	})
	rt.mux.HandleFunc("/admin/add", rt.admin("add"))
	rt.mux.HandleFunc("/admin/remove", rt.admin("remove"))
	rt.mux.HandleFunc("/admin/replace", rt.admin("replace"))
	return rt, nil
}

// ServeHTTP dispatches through the mux under panic recovery, like
// flexserve: a panicking handler yields a 500 and a visible counter, not
// a dead connection.
func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			rt.met.panics.Add(1)
			log.Printf("flexrouter: panic serving %s: %v\n%s", r.URL.Path, p, debug.Stack())
			serveutil.WriteJSON(w, http.StatusInternalServerError, serveutil.ErrorBody{Error: "internal server error"})
		}
	}()
	rt.mux.ServeHTTP(w, r)
}

// routerResponse is flexserve's search response extended with the
// partial-result fields. shards_ok < shards_total (equivalently
// "partial": true) marks a ranking merged from a degraded fleet.
type routerResponse struct {
	serveutil.SearchResponse
	ShardsOK    int      `json:"shards_ok"`
	ShardsTotal int      `json:"shards_total"`
	Partial     bool     `json:"partial,omitempty"`
	ShardErrors []string `json:"shard_errors,omitempty"`
}

func (rt *router) badRequest(w http.ResponseWriter, msg string) {
	rt.met.badRequest.Add(1)
	serveutil.WriteJSON(w, http.StatusBadRequest, serveutil.ErrorBody{Error: msg})
}

func (rt *router) search(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// The shards' own request rules, checked before fanning out, so a
	// request a shard would reject costs no shard traffic.
	qs := r.URL.Query()
	req, err := serveutil.ParseSearch(qs)
	if err != nil {
		rt.badRequest(w, err.Error())
		return
	}
	k, offset := req.Opts.K, req.Opts.Offset
	// String always names a scheme, so the parse cannot fail.
	scheme, _ := rank.ParseScheme(req.Opts.Scheme.String())

	// The per-shard K+Offset trick: a globally-skipped answer may rank
	// anywhere within one shard, so every shard must return its full top
	// K+Offset and the offset is applied exactly once after the merge.
	// No offset parameter is forwarded.
	shardQ := url.Values{}
	shardQ.Set("q", qs.Get("q"))
	shardQ.Set("k", strconv.Itoa(k+offset))
	for _, p := range []string{"algo", "scheme", "ws", "wc", "why", "snippet"} {
		if v := qs.Get(p); v != "" {
			shardQ.Set(p, v)
		}
	}
	// The forwarded k is K+Offset, which the shards bound like any k.
	if _, err := serveutil.ParseSearch(shardQ); err != nil {
		rt.badRequest(w, "k+offset is the k sent to shards: "+err.Error())
		return
	}
	results := rt.scatter(r.Context(), "/search?"+shardQ.Encode())

	type mergeItem struct {
		a   serveutil.Answer
		key merge.Key
	}
	var items []mergeItem
	shardsOK := 0
	var shardErrs []string
	algo, algoReason := "", ""
	for i, res := range results {
		if res.err != nil {
			shardErrs = append(shardErrs, rt.shards[i]+": "+res.err.Error())
			continue
		}
		shardsOK++
		// Every shard resolves Auto by the same rule over the same query
		// and scheme, so any shard names the algorithm that ran.
		if algo == "" {
			algo, algoReason = res.resp.Algo, res.resp.AlgoReason
		}
		for j, a := range res.resp.Answers {
			items = append(items, mergeItem{a: a, key: merge.Key{
				Score: rank.Score{SS: a.Structural, KS: a.Keyword},
				Doc:   a.Doc,
				// The response index stands in for node order: within one
				// (score, doc) tie all answers come from the same shard
				// response, already node-ordered by the shard's own merge.
				Ord: j,
			}})
		}
	}
	if shardsOK == 0 {
		rt.met.failed.Add(1)
		serveutil.WriteJSON(w, http.StatusBadGateway, serveutil.ErrorBody{
			Error: "all shards failed: " + joinErrs(shardErrs),
		})
		return
	}
	merge.Sort(items, func(it mergeItem) merge.Key { return it.key }, scheme)
	items = merge.Page(items, k, offset)
	answers := make([]serveutil.Answer, 0, len(items))
	for i, it := range items {
		it.a.Rank = i + 1
		answers = append(answers, it.a)
	}
	resp := routerResponse{
		SearchResponse: serveutil.SearchResponse{
			Query:      req.Query.String(),
			Algo:       algo,
			AlgoReason: algoReason,
			Answers:    answers,
			ElapsedMS:  float64(time.Since(start)) / 1e6,
		},
		ShardsOK:    shardsOK,
		ShardsTotal: len(rt.shards),
	}
	if shardsOK < len(rt.shards) {
		resp.Partial = true
		resp.ShardErrors = shardErrs
		rt.met.partial.Add(1)
	} else {
		rt.met.ok.Add(1)
	}
	serveutil.WriteJSON(w, http.StatusOK, resp)
}

func joinErrs(errs []string) string {
	out := ""
	for i, e := range errs {
		if i > 0 {
			out += "; "
		}
		out += e
	}
	return out
}

type shardResult struct {
	resp *serveutil.SearchResponse
	err  error
}

// scatter issues pathAndQuery against every shard concurrently and
// returns the per-shard outcomes indexed like rt.shards.
func (rt *router) scatter(ctx context.Context, pathAndQuery string) []shardResult {
	results := make([]shardResult, len(rt.shards))
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = rt.fetchShard(ctx, i, pathAndQuery)
		}(i)
	}
	wg.Wait()
	return results
}

// fetchShard runs one shard request with a per-attempt deadline and
// bounded jittered retries on connection errors. Deadline hits and
// server-side HTTP errors fail fast: retrying a timeout only multiplies
// the latency the deadline exists to bound, and a shard that answered
// with an error will deterministically answer with it again.
func (rt *router) fetchShard(ctx context.Context, i int, pathAndQuery string) shardResult {
	sm := &rt.met.shards[i]
	var lastErr error
	for attempt := 0; attempt <= rt.retries; attempt++ {
		if attempt > 0 {
			sm.retries.Add(1)
			if err := sleepJittered(ctx, backoffBase<<(attempt-1)); err != nil {
				return shardResult{err: err}
			}
		}
		attemptCtx, cancel := context.WithTimeout(ctx, rt.shardTimeout)
		t0 := time.Now()
		resp, err := rt.doSearch(attemptCtx, rt.shards[i]+pathAndQuery)
		sm.latency.Observe(time.Since(t0))
		cancel()
		if err == nil {
			return shardResult{resp: resp}
		}
		lastErr = err
		switch {
		case ctx.Err() != nil:
			// The client went away or the router is shutting down;
			// nothing left to retry for.
			return shardResult{err: ctx.Err()}
		case errors.Is(err, context.DeadlineExceeded):
			sm.timeouts.Add(1)
			return shardResult{err: fmt.Errorf("deadline %v exceeded", rt.shardTimeout)}
		case isConnError(err):
			sm.errors.Add(1)
			continue
		default:
			sm.errors.Add(1)
			return shardResult{err: err}
		}
	}
	return shardResult{err: fmt.Errorf("%w (after %d attempts)", lastErr, rt.retries+1)}
}

// isConnError reports whether err is a transport-level failure worth
// retrying (connection refused/reset, DNS trouble) as opposed to a
// deadline, cancellation or an HTTP-level error.
func isConnError(err error) bool {
	var ue *url.Error
	return errors.As(err, &ue) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, context.Canceled)
}

// sleepJittered waits d plus up to 100% random jitter (full jitter keeps
// a fleet of routers from retrying a recovering shard in lockstep),
// aborting early if ctx ends.
func sleepJittered(ctx context.Context, d time.Duration) error {
	d += time.Duration(rand.Int63n(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// doSearch issues one GET and decodes the shard's search response.
func (rt *router) doSearch(ctx context.Context, url string) (*serveutil.SearchResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxShardBody))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard status %d: %s", resp.StatusCode, compactErr(body))
	}
	var sr serveutil.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, fmt.Errorf("bad shard response: %w", err)
	}
	return &sr, nil
}

// compactErr extracts a shard error body's message for diagnostics.
func compactErr(body []byte) string {
	var eb serveutil.ErrorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	if len(body) > 200 {
		body = body[:200]
	}
	return string(body)
}

// admin returns a handler proxying one corpus mutation to the
// consistent-hash owner of the document name, so the same name always
// lands on (and is removed from) the same shard.
func (rt *router) admin(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			serveutil.WriteJSON(w, http.StatusMethodNotAllowed, serveutil.ErrorBody{Error: "POST required"})
			return
		}
		name := r.URL.Query().Get("name")
		if name == "" {
			rt.badRequest(w, "missing name parameter")
			return
		}
		owner := rt.ring.Owner(name)
		body := http.MaxBytesReader(w, r.Body, maxAdminBody)
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
			owner+"/admin/"+op+"?name="+url.QueryEscape(name), body)
		if err != nil {
			serveutil.WriteJSON(w, http.StatusInternalServerError, serveutil.ErrorBody{Error: err.Error()})
			return
		}
		req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
		resp, err := rt.client.Do(req)
		if err != nil {
			serveutil.WriteJSON(w, http.StatusBadGateway, serveutil.ErrorBody{Error: owner + ": " + err.Error()})
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.Header().Set("X-Flexpath-Shard", owner)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, io.LimitReader(resp.Body, maxShardBody)) //nolint:errcheck
	}
}

// shardStats is one shard's row in the router's /stats.
type shardStats struct {
	URL       string `json:"url"`
	OK        bool   `json:"ok"`
	Documents int    `json:"documents"`
	Elements  int    `json:"elements"`
	Error     string `json:"error,omitempty"`
}

type routerStatsResponse struct {
	ShardsTotal int          `json:"shards_total"`
	ShardsOK    int          `json:"shards_ok"`
	Documents   int          `json:"documents"`
	Elements    int          `json:"elements"`
	Shards      []shardStats `json:"shards"`
}

// stats probes every shard's /stats and aggregates corpus totals; a
// shard that cannot answer within the shard deadline is reported down
// without failing the endpoint.
func (rt *router) stats(w http.ResponseWriter, r *http.Request) {
	rows := make([]shardStats, len(rt.shards))
	var wg sync.WaitGroup
	for i, base := range rt.shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			rows[i] = shardStats{URL: base}
			ctx, cancel := context.WithTimeout(r.Context(), rt.shardTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
			if err != nil {
				rows[i].Error = err.Error()
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				rows[i].Error = err.Error()
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, maxShardBody))
			if err != nil || resp.StatusCode != http.StatusOK {
				rows[i].Error = fmt.Sprintf("status %d", resp.StatusCode)
				return
			}
			var st struct {
				Documents int `json:"documents"`
				Elements  int `json:"elements"`
			}
			if err := json.Unmarshal(body, &st); err != nil {
				rows[i].Error = err.Error()
				return
			}
			rows[i].OK = true
			rows[i].Documents = st.Documents
			rows[i].Elements = st.Elements
		}(i, base)
	}
	wg.Wait()
	out := routerStatsResponse{ShardsTotal: len(rt.shards), Shards: rows}
	for _, row := range rows {
		if row.OK {
			out.ShardsOK++
			out.Documents += row.Documents
			out.Elements += row.Elements
		}
	}
	serveutil.WriteJSON(w, http.StatusOK, out)
}

// metrics renders the flexpath_router_* families in the Prometheus text
// exposition format (validated by cmd/promcheck in CI).
func (rt *router) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)

	obs.WriteFamily(w, "flexpath_router_shards", "gauge", "Shards configured behind this router.",
		obs.Sample{Value: len(rt.shards)})
	status := func(s string, v *atomic.Uint64) obs.Sample {
		return obs.Sample{Labels: []string{"status", s}, Value: v.Load()}
	}
	obs.WriteFamily(w, "flexpath_router_queries_total", "counter",
		"Routed queries by outcome (ok = all shards answered, partial = some did, error = none did).",
		status("ok", &rt.met.ok), status("partial", &rt.met.partial),
		status("error", &rt.met.failed), status("bad_request", &rt.met.badRequest))
	obs.WriteFamily(w, "flexpath_router_partial_results_total", "counter",
		"Successful responses merged from a strict subset of shards.", obs.Sample{Value: rt.met.partial.Load()})
	obs.WriteFamily(w, "flexpath_router_panics_total", "counter",
		"Handler panics recovered into 500 responses.", obs.Sample{Value: rt.met.panics.Load()})

	obs.WriteFamily(w, "flexpath_router_shard_request_duration_seconds", "histogram",
		"Per-attempt shard request latency.")
	for i, base := range rt.shards {
		obs.WriteHistogram(w, "flexpath_router_shard_request_duration_seconds", "shard", base,
			rt.met.shards[i].latency.Snapshot())
	}
	perShard := func(name, help string, counter func(*shardMetrics) *atomic.Uint64) {
		samples := make([]obs.Sample, len(rt.shards))
		for i, base := range rt.shards {
			samples[i] = obs.Sample{Labels: []string{"shard", base}, Value: counter(&rt.met.shards[i]).Load()}
		}
		obs.WriteFamily(w, name, "counter", help, samples...)
	}
	perShard("flexpath_router_shard_errors_total",
		"Failed shard attempts other than deadline hits (connection errors, HTTP errors, bad responses).",
		func(m *shardMetrics) *atomic.Uint64 { return &m.errors })
	perShard("flexpath_router_shard_timeouts_total", "Shard attempts that hit the per-shard deadline.",
		func(m *shardMetrics) *atomic.Uint64 { return &m.timeouts })
	perShard("flexpath_router_shard_retries_total", "Retry attempts issued after shard connection errors.",
		func(m *shardMetrics) *atomic.Uint64 { return &m.retries })
}
