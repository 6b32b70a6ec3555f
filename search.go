package flexpath

import (
	"context"

	"flexpath/internal/core"
	"flexpath/internal/obs"
	"flexpath/internal/rank"
	"flexpath/internal/topk"
)

// topkResult aliases the internal result type the algorithms return.
type topkResult = topk.Result

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
// tmpl and report into a fresh internal metrics sink. Pagination: the
// algorithms compute the top Offset+K answers; the public layer slices
// the window off afterwards.
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
		Parallel: o.Parallel,
		Ctx:      ctx,
		Metrics:  &topk.Metrics{},
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

// rankScore converts a public Answer back to the internal score pair for
// cross-document merging.
func rankScore(a Answer) rank.Score {
	return rank.Score{SS: a.Structural, KS: a.Keyword}
}
