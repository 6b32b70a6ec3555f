package flexpath

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flexpath/internal/core"
	"flexpath/internal/ir"
	"flexpath/internal/lru"
	"flexpath/internal/merge"
	"flexpath/internal/obs"
	"flexpath/internal/planner"
	"flexpath/internal/topk"
)

// part is one member's share of a cached result set: the top K+Offset
// results of the document with the given serial. Documents are
// immutable, so a part is right for any member whose document has its
// serial, whatever happened to the membership since it was stored.
// Mutations therefore never purge the cache, and an entry pins no
// Document: a replaced one can be collected.
type part struct {
	serial  uint64
	results []topk.Result
}

// corpus is the membership one search evaluates: a collection's published
// membership, or a document searched directly as its only member. Member
// i has a name (the merge tie-break), a document if decoded (read without
// a fault), a document to load (faulting it in when cold), and errors to
// attribute to it.
type corpus interface {
	size() int
	name(i int) string
	decoded(i int) *Document
	load(i int, span *obs.Span) (*Document, error)
	wrap(i int, err error) error
}

// lone is a document searched directly.
type lone struct{ d *Document }

func (l lone) size() int                              { return 1 }
func (l lone) name(int) string                        { return "" }
func (l lone) decoded(int) *Document                  { return l.d }
func (l lone) load(int, *obs.Span) (*Document, error) { return l.d, nil }
func (l lone) wrap(_ int, err error) error            { return err }

// unit is one member's share of one search. A unit without a document
// after the cache lookup is stale: its part was missing or came from
// another document, so the search evaluates it (met is that work). next
// is the merge cursor into results.
type unit struct {
	doc *Document
	part
	met  topk.Metrics
	err  error
	next int
}

// search is the one search path, for a document searched directly and
// for a collection alike: look up one result-cache entry, evaluate the
// members whose part is missing or stale, merge the parts, and build the
// page's answers only. c is the collection that owns the result cache;
// nil for a document searched directly, which has none. answer converts
// member i's answer to the caller's answer type.
func search[A any](ctx context.Context, c *Collection, set corpus, q *Query, opts SearchOptions, answer func(i int, a Answer) A) ([]A, error) {
	opts.defaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The observability span (if the caller started one) rides the
	// context; every use below is nil-guarded so an uninstrumented
	// search pays only this lookup.
	span := obs.SpanFrom(ctx)
	units := make([]unit, set.size())

	var qc *lru.Cache[[]part]
	if c != nil {
		qc = c.qc.Load()
	}
	useCache := qc != nil && !opts.NoCache
	var key string
	var cached []part
	found := false
	if useCache {
		key = searchCacheKey(q, opts)
		tCache := now(span)
		cached, found = qc.Get(key)
		span.Rec(obs.StageCache, since(tCache))
	}
	stale := len(units)
	for i := range units {
		if d := set.decoded(i); useCache && d != nil {
			if p, ok := partOf(cached, i, d.serial); ok {
				units[i].doc, units[i].part = d, p
				stale--
			}
		}
	}
	// Auto is resolved once per search, after the cache key, so every
	// member runs the same algorithm.
	reason := ""
	if opts.Algorithm == Auto {
		tPlan := now(span)
		c := planner.Rule(q.q, opts.Scheme.rank())
		opts.Algorithm, reason = fromPlanner[c.Algo], c.Reason
		span.Rec(obs.StagePlan, since(tPlan))
	}
	// Every member looks up its plan template under the same key.
	tkey := ""
	if stale > 0 {
		tkey = templateKey(q, opts.Weights.rank(), opts.Hierarchy)
	}
	fanOut(ctx, set, units, stale, q, tkey, opts, span)
	if err := ctx.Err(); err != nil {
		// A cancelled run returns truncated results; surface the error
		// instead of caching or reporting them.
		return nil, err
	}

	// Errors and metrics walk the members in order, so the outcome is
	// independent of worker timing. A part from the cache did no work,
	// and an Auto key's parts were all made by the algorithm chosen now.
	met := Metrics{Algorithm: opts.Algorithm.String(), AlgoReason: reason}
	total := 0
	for i := range units {
		u := &units[i]
		if u.err != nil {
			return nil, set.wrap(i, u.err)
		}
		met.add(exportMetrics(&u.met))
		total += len(u.results)
	}
	if opts.Metrics != nil {
		*opts.Metrics = met
	}
	if useCache {
		if stale == 0 && found {
			span.MarkCacheHit()
		}
		if stale > 0 || !found || len(cached) != len(units) {
			if c.beforePut != nil {
				c.beforePut()
			}
			parts := make([]part, len(units))
			for i := range units {
				parts[i] = units[i].part
			}
			qc.Put(key, parts)
		}
	}

	// Each part is ranked by (score, node), which is merge.Less within one
	// document, so a k-way merge of the parts is the global ranking. The
	// page is built from it directly; answers ranked before Offset or after
	// Offset+K are never built.
	tMerge := now(span)
	size := max(0, min(opts.K, total-opts.Offset))
	out := make([]A, 0, size)
	expr := snippetExpr(q)
	scheme := opts.Scheme.rank()
	for rank := 0; len(out) < size; rank++ {
		best := -1
		var bestKey merge.Key
		for i := range units {
			u := &units[i]
			if u.next == len(u.results) {
				continue
			}
			r := &u.results[u.next]
			k := merge.Key{Score: r.Score, Doc: set.name(i), Ord: int(r.Node)}
			if best < 0 || merge.Less(k, bestKey, scheme) {
				best, bestKey = i, k
			}
		}
		u := &units[best]
		if rank >= opts.Offset {
			out = append(out, answer(best, u.doc.answer(&u.results[u.next], expr)))
		}
		u.next++
	}
	span.Rec(obs.StageMerge, since(tMerge))
	return out, nil
}

// partOf finds the part of the document with the given serial in a cache
// entry, first at the member's own position.
func partOf(parts []part, i int, serial uint64) (part, bool) {
	if i < len(parts) && parts[i].serial == serial {
		return parts[i], true
	}
	for _, p := range parts {
		if p.serial == serial {
			return p, true
		}
	}
	return part{}, false
}

// fanOut evaluates the stale units on a bounded worker pool
// (SearchOptions.Workers, default GOMAXPROCS); tkey is q's plan-template
// key under opts.
func fanOut(ctx context.Context, set corpus, units []unit, stale int, q *Query, tkey string, opts SearchOptions, span *obs.Span) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, stale); workers <= 1 {
		for i := range units {
			if units[i].doc == nil {
				units[i].evaluate(ctx, set, i, q, tkey, opts, span)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				if units[i].doc == nil {
					units[i].evaluate(ctx, set, i, q, tkey, opts, span)
				}
			}
		}()
	}
	wg.Wait()
}

// evaluate computes member i's part: its top K+Offset results.
func (u *unit) evaluate(ctx context.Context, set corpus, i int, q *Query, tkey string, opts SearchOptions, span *obs.Span) {
	d, err := set.load(i, span)
	if err != nil {
		u.err = err
		return
	}
	// StageChain prices template acquisition: a lookup on a plan-cache hit.
	tChain := now(span)
	tmpl, err := d.keyedTemplate(tkey, q, opts.Weights.rank(), opts.Hierarchy)
	span.Rec(obs.StageChain, since(tChain))
	if err != nil {
		u.err = err
		return
	}
	chain, topts := tmpl.Chain, topkOptions(ctx, opts, tmpl)
	topts.Metrics = &u.met
	u.doc, u.serial = d, d.serial
	switch opts.Algorithm {
	case Hybrid:
		u.results = topk.Hybrid(chain, d.est, topts)
	case SSO:
		u.results = topk.SSO(chain, d.est, topts)
	default: // DPO; search resolved Auto before the fan-out
		u.results = topk.DPO(nil, chain, topts)
	}
	span.SetRelaxations(u.met.RelaxationsEncoded)
}

// fromPlanner maps the planner's algorithms onto the public ones.
var fromPlanner = [...]Algorithm{planner.DPO: DPO, planner.SSO: SSO, planner.Hybrid: Hybrid}

// now and since time a stage only when a span records it.
func now(span *obs.Span) time.Time {
	if span == nil {
		return time.Time{}
	}
	return time.Now()
}

func since(t time.Time) time.Duration {
	if t.IsZero() {
		return 0
	}
	return time.Since(t)
}

// snippetExpr is the query's first contains expression, which answers'
// snippets center on; nil when the query has none.
func snippetExpr(q *Query) ir.Expr {
	for i := range q.q.Nodes {
		if len(q.q.Nodes[i].Contains) > 0 {
			return q.q.Nodes[i].Contains[0]
		}
	}
	return nil
}

// answer converts result r of the document into a public Answer. r may
// belong to a cache entry, so its Missed slice is copied before it is
// handed out as Relaxed: a caller mutating Relaxed must not poison later
// cache hits.
func (d *Document) answer(r *topk.Result, expr ir.Expr) Answer {
	id, _ := d.tree.Attr(r.Node, "id")
	var relaxed []string
	if len(r.Missed) > 0 {
		relaxed = append([]string(nil), r.Missed...)
	}
	return Answer{
		Path:        d.tree.Path(r.Node),
		Tag:         d.tree.TagName(r.Node),
		ID:          id,
		Structural:  r.Score.SS,
		Keyword:     r.Score.KS,
		Relaxations: r.Relaxations,
		Relaxed:     relaxed,
		node:        r.Node,
		doc:         d,
		expr:        expr,
	}
}

// defaults applies the zero-value conventions of SearchOptions: K <= 0
// asks for the top 10, and a negative offset is no offset.
func (o *SearchOptions) defaults() {
	if o.K <= 0 {
		o.K = 10
	}
	if o.Offset < 0 {
		o.Offset = 0
	}
}

// topkOptions converts search options for the algorithms, which plan from
// tmpl. Pagination: the algorithms compute the top Offset+K answers; the
// page is taken after the merge.
func topkOptions(ctx context.Context, o SearchOptions, tmpl *core.Template) topk.Options {
	// The active observability span (if any) rides the context; capture
	// it before the background context is normalized away.
	span := obs.SpanFrom(ctx)
	if ctx == context.Background() {
		// The algorithms treat a nil context as "never cancelled" and
		// skip polling entirely.
		ctx = nil
	}
	return topk.Options{
		K:        o.K + o.Offset,
		Scheme:   o.Scheme.rank(),
		Ctx:      ctx,
		Span:     span,
		Template: tmpl,
	}
}

// exportMetrics converts the internal work counters to the public shape.
func exportMetrics(m *topk.Metrics) Metrics {
	return Metrics{
		QueriesEvaluated:   m.QueriesEvaluated,
		PlansRun:           m.PlansRun,
		RelaxationsEncoded: m.RelaxationsEncoded,
		Restarts:           m.Restarts,
		TuplesGenerated:    m.Pipeline.TuplesGenerated,
		TuplesPruned:       m.Pipeline.TuplesPruned,
		SortedTuples:       m.Pipeline.SortedTuples,
		Buckets:            m.Pipeline.Buckets,
	}
}
