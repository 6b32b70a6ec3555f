// Package obs is the stdlib-only observability layer of the serving
// stack: atomic counters, bounded log2-bucket latency histograms, a
// ring-buffer slow-query log, and a lightweight per-query Span that
// accumulates per-stage timings as a search moves through parsing, chain
// building, join execution, merging and cache lookups.
//
// The design constraint is that instrumentation must cost ~nothing when
// disabled: the library layers obtain a *Span from the request context
// and every Span method is nil-safe, so an uninstrumented search pays one
// context lookup and a handful of nil checks. When a Registry is active,
// per-stage accounting is a time.Now pair and an atomic add per stage —
// cheap enough that flexbench's overhead figure bounds the slowdown on
// the paper's query workload below 5%.
package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one phase of query evaluation. Per-stage latency is
// the accounting the compressed-XPath line of work (Arroyuelo et al.)
// shows an XML IR engine needs: knowing *where* evaluation time goes,
// not just that a query was slow.
type Stage int

const (
	// StageParse covers query text parsing (handler-side).
	StageParse Stage = iota
	// StageChain covers relaxation-chain construction (cached per query
	// shape, so it is hot only for novel queries).
	StageChain
	// StageJoin covers scored join-plan execution / DPO's per-level
	// evaluations — the paper's §6 dominant cost.
	StageJoin
	// StageMerge covers cross-document ranking merges in collections.
	StageMerge
	// StageCache covers query-result cache lookups.
	StageCache
	// StagePlan covers resolving Auto to an algorithm.
	StagePlan
	// StageFault covers faulting cold collection members in: decoding a
	// snapshot's sections, or waiting for another search that is.
	StageFault
	// NumStages is the number of stages.
	NumStages int = iota
)

// String returns the stage's label as used in metrics and the slowlog.
func (s Stage) String() string {
	switch s {
	case StageParse:
		return "parse"
	case StageChain:
		return "chain"
	case StageJoin:
		return "join"
	case StageMerge:
		return "merge"
	case StageCache:
		return "cache"
	case StagePlan:
		return "plan"
	case StageFault:
		return "fault"
	}
	return "unknown"
}

// Span accumulates the observable facts of one query evaluation. Stage
// recordings are atomic: a collection search fans per-document work out
// over a worker pool and every worker records into the same span, so
// stage times are sums of per-document work (they can exceed wall time
// under parallelism). All methods are safe on a nil receiver.
type Span struct {
	query  string
	algo   string
	scheme string
	k      int

	start    time.Time
	reg      *Registry
	stages   [NumStages]atomic.Int64 // nanoseconds
	relax    atomic.Int64            // deepest relaxation level reached
	cacheHit atomic.Bool
}

// Rec adds d to the span's accumulated time for stage s.
func (sp *Span) Rec(s Stage, d time.Duration) {
	if sp == nil {
		return
	}
	sp.stages[s].Add(int64(d))
}

// SetRelaxations records the relaxation level a search reached, keeping
// the deepest level across a collection's member documents.
func (sp *Span) SetRelaxations(n int) {
	if sp == nil || n <= 0 {
		return
	}
	for {
		cur := sp.relax.Load()
		if int64(n) <= cur || sp.relax.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// MarkCacheHit records that a query-result cache served this search.
func (sp *Span) MarkCacheHit() {
	if sp == nil {
		return
	}
	sp.cacheHit.Store(true)
}

// Finish closes the span with a terminal status ("ok", "timeout",
// "canceled", "error") and folds it into the registry's counters,
// histograms and slow-query log. Finish must be called exactly once.
func (sp *Span) Finish(status string) {
	if sp == nil {
		return
	}
	sp.reg.finish(sp, status)
}

// spanKey carries the active span through a request context.
type spanKey struct{}

// WithSpan returns a context carrying the span.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFrom returns the span carried by ctx, or nil. A nil ctx is allowed
// (the topk layer models "never cancelled" as a nil context).
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Registry aggregates finished spans: query counters keyed by
// (algorithm, scheme, status), per-algorithm latency histograms,
// per-stage latency histograms and the slow-query log. All methods are
// safe for concurrent use and on a nil receiver — a nil *Registry
// produces nil spans, turning the whole layer off.
type Registry struct {
	mu      sync.Mutex
	queries map[queryKey]uint64
	latency map[string]*Histogram // by algorithm

	stages [NumStages]*Histogram
	slow   *SlowLog
}

type queryKey struct {
	algo, scheme, status string
}

// slowLogCap is how many finished spans a registry's slow-query log
// keeps: the most recent ones, whatever their latency.
const slowLogCap = 128

// NewRegistry returns a registry whose slow-query log keeps the
// slowLogCap most recent queries.
func NewRegistry() *Registry {
	r := &Registry{
		queries: make(map[queryKey]uint64),
		latency: make(map[string]*Histogram),
		slow:    NewSlowLog(slowLogCap),
	}
	for i := range r.stages {
		r.stages[i] = NewHistogram()
	}
	return r
}

// StartSpan opens a span for one query evaluation that began at start.
// A caller that timed a stage before it
// knew the query (the server's parse) passes that stage's start, so the
// span's duration covers every stage recorded into it. On a nil registry
// it returns a nil span, which every downstream layer accepts.
func (r *Registry) StartSpan(start time.Time, query, algo, scheme string, k int) *Span {
	if r == nil {
		return nil
	}
	return &Span{query: query, algo: algo, scheme: scheme, k: k, start: start, reg: r}
}

func (r *Registry) finish(sp *Span, status string) {
	if r == nil {
		return
	}
	total := time.Since(sp.start)

	var stages [NumStages]time.Duration
	for i := range stages {
		stages[i] = time.Duration(sp.stages[i].Load())
		r.stages[i].Observe(stages[i])
	}

	r.mu.Lock()
	r.queries[queryKey{sp.algo, sp.scheme, status}]++
	h := r.latency[sp.algo]
	if h == nil {
		h = NewHistogram()
		r.latency[sp.algo] = h
	}
	r.mu.Unlock()
	h.Observe(total)

	r.slow.Add(SlowEntry{
		Time:        time.Now(),
		Query:       sp.query,
		Algo:        sp.algo,
		Scheme:      sp.scheme,
		Status:      status,
		K:           sp.k,
		Relaxations: int(sp.relax.Load()),
		CacheHit:    sp.cacheHit.Load(),
		Total:       total,
		Stages:      stages,
	})
}

// QueryCount is one (algorithm, scheme, status) counter cell.
type QueryCount struct {
	Algo, Scheme, Status string
	Count                uint64
}

// QueryCounts snapshots the query counters in deterministic order.
func (r *Registry) QueryCounts() []QueryCount {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]QueryCount, 0, len(r.queries))
	for k, v := range r.queries {
		out = append(out, QueryCount{Algo: k.algo, Scheme: k.scheme, Status: k.status, Count: v})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Algo != out[j].Algo {
			return out[i].Algo < out[j].Algo
		}
		if out[i].Scheme != out[j].Scheme {
			return out[i].Scheme < out[j].Scheme
		}
		return out[i].Status < out[j].Status
	})
	return out
}

// LatencyByAlgo snapshots the per-algorithm latency histograms in
// algorithm name order.
func (r *Registry) LatencyByAlgo() (algos []string, hists []HistogramSnapshot) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	for a := range r.latency {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	hists = make([]HistogramSnapshot, len(algos))
	for i, a := range algos {
		hists[i] = r.latency[a].Snapshot()
	}
	r.mu.Unlock()
	return algos, hists
}

// StageLatency snapshots the per-stage histograms, indexed by Stage.
func (r *Registry) StageLatency() []HistogramSnapshot {
	if r == nil {
		return nil
	}
	out := make([]HistogramSnapshot, NumStages)
	for i := range r.stages {
		out[i] = r.stages[i].Snapshot()
	}
	return out
}

// SlowLog exposes the registry's slow-query log.
func (r *Registry) SlowLog() *SlowLog {
	if r == nil {
		return nil
	}
	return r.slow
}
