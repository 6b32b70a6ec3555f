package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// The whole layer must be inert when disabled: nil registry, nil
	// span, nil slowlog.
	var r *Registry
	sp := r.StartSpan("//a", "Hybrid", "StructureFirst", 10)
	if sp != nil {
		t.Fatalf("nil registry produced a span")
	}
	sp.Rec(StageJoin, time.Millisecond)
	sp.SetRelaxations(3)
	sp.MarkCacheHit()
	sp.Finish("ok")
	if r.InFlight() != 0 || r.QueryCounts() != nil || r.SlowLog().Len() != 0 {
		t.Fatal("nil registry not inert")
	}
	if got := SpanFrom(nil); got != nil {
		t.Fatalf("SpanFrom(nil) = %v", got)
	}
	if got := SpanFrom(context.Background()); got != nil {
		t.Fatalf("SpanFrom(empty ctx) = %v", got)
	}
}

func TestSpanRoundTrip(t *testing.T) {
	r := NewRegistry(8, 0)
	sp := r.StartSpan(`//item[./a]`, "DPO", "Combined", 50)
	if r.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1", r.InFlight())
	}
	ctx := WithSpan(context.Background(), sp)
	if SpanFrom(ctx) != sp {
		t.Fatal("span not carried by context")
	}
	sp.Rec(StageChain, 2*time.Millisecond)
	sp.Rec(StageJoin, 5*time.Millisecond)
	sp.Rec(StageJoin, 3*time.Millisecond) // accumulates
	sp.SetRelaxations(2)
	sp.SetRelaxations(1) // keeps the deeper level
	sp.Finish("ok")

	if r.InFlight() != 0 {
		t.Errorf("in-flight after finish = %d", r.InFlight())
	}
	counts := r.QueryCounts()
	if len(counts) != 1 || counts[0] != (QueryCount{Algo: "DPO", Scheme: "Combined", Status: "ok", Count: 1}) {
		t.Errorf("query counts = %+v", counts)
	}
	top := r.SlowLog().Top(10)
	if len(top) != 1 {
		t.Fatalf("slowlog entries = %d, want 1", len(top))
	}
	e := top[0]
	if e.Relaxations != 2 || e.K != 50 || e.Algo != "DPO" {
		t.Errorf("slow entry = %+v", e)
	}
	if e.Stages[StageJoin] != 8*time.Millisecond || e.Stages[StageChain] != 2*time.Millisecond {
		t.Errorf("stage times = %v", e.Stages)
	}
	algos, hists := r.LatencyByAlgo()
	if len(algos) != 1 || algos[0] != "DPO" || hists[0].Count != 1 {
		t.Errorf("latency by algo = %v %v", algos, hists)
	}
}

func TestSpanConcurrentRec(t *testing.T) {
	r := NewRegistry(8, 0)
	sp := r.StartSpan("q", "Hybrid", "StructureFirst", 10)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp.Rec(StageJoin, time.Microsecond)
				sp.SetRelaxations(j % 5)
			}
		}()
	}
	wg.Wait()
	sp.Finish("ok")
	e := r.SlowLog().Top(1)[0]
	if e.Stages[StageJoin] != 800*time.Microsecond {
		t.Errorf("join time = %v, want 800µs", e.Stages[StageJoin])
	}
	if e.Relaxations != 4 {
		t.Errorf("relaxations = %d, want 4", e.Relaxations)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 100 observations at 1ms, 10 at 100ms: p50 must bound 1ms from
	// above within a power of two, p99 must reach the 100ms bucket.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 110 {
		t.Fatalf("count = %d", s.Count)
	}
	p50 := s.Quantile(0.50)
	if p50 < time.Millisecond || p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want in [1ms, 2ms]", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 100*time.Millisecond || p99 > 200*time.Millisecond {
		t.Errorf("p99 = %v, want in [100ms, 200ms]", p99)
	}
	if m := s.Mean(); m < 9*time.Millisecond || m > 11*time.Millisecond {
		t.Errorf("mean = %v, want ~10ms", m)
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram()
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
	h.Observe(0)
	h.Observe(-time.Second) // clamped, must not panic or corrupt
	h.Observe(time.Hour)    // overflow bucket
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Counts[histBuckets] != 1 {
		t.Errorf("overflow bucket = %d, want 1", s.Counts[histBuckets])
	}
	// A quantile landing in the overflow reports the largest finite bound.
	if q := s.Quantile(1); q != time.Duration(BucketBound(histBuckets-1)) {
		t.Errorf("overflow quantile = %v", q)
	}
}

func TestBucketMonotone(t *testing.T) {
	prev := -1
	for d := time.Duration(1); d < 10*time.Minute; d *= 3 {
		b := bucketOf(d)
		if b < prev {
			t.Fatalf("bucketOf not monotone at %v", d)
		}
		if bound := BucketBound(b); bound >= 0 && int64(d) > bound {
			t.Fatalf("d=%v above its bucket bound %d", d, bound)
		}
		prev = b
	}
}

func TestSlowLogRingAndThreshold(t *testing.T) {
	l := NewSlowLog(3, 10*time.Millisecond)
	l.Add(SlowEntry{Query: "fast", Total: time.Millisecond})
	if l.Len() != 0 {
		t.Fatalf("fast query retained")
	}
	for i, d := range []time.Duration{20, 40, 30, 50} {
		l.Add(SlowEntry{Query: string(rune('a' + i)), Total: d * time.Millisecond})
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3 (ring capacity)", l.Len())
	}
	top := l.Top(2)
	if len(top) != 2 || top[0].Total != 50*time.Millisecond || top[1].Total != 40*time.Millisecond {
		t.Errorf("top = %+v", top)
	}
	// The oldest entry (20ms, "a") was displaced by the ring.
	for _, e := range l.Top(0) {
		if e.Query == "a" {
			t.Error("oldest entry not displaced")
		}
	}
}

func TestWritePrometheusValidates(t *testing.T) {
	r := NewRegistry(8, 0)
	for _, algo := range []string{"Hybrid", "DPO"} {
		sp := r.StartSpan(`//a[.contains("x")]`, algo, "StructureFirst", 10)
		sp.Rec(StageJoin, 3*time.Millisecond)
		sp.Finish("ok")
	}
	sp := r.StartSpan("//b", "Hybrid", "KeywordFirst", 5)
	sp.Finish("timeout")

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		`flexpath_queries_total{algo="Hybrid",scheme="StructureFirst",status="ok"} 1`,
		`flexpath_queries_total{algo="Hybrid",scheme="KeywordFirst",status="timeout"} 1`,
		"flexpath_inflight_queries 0",
		`flexpath_query_duration_seconds_count{algo="DPO"} 1`,
		`flexpath_stage_duration_seconds_bucket{stage="join",le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	bad := []string{
		"flexpath_x 1\n",                           // no TYPE
		"# TYPE m counter\nm{a=b} 1\n",             // unquoted label
		"# TYPE m counter\nm notanumber\n",         // bad value
		"# TYPE m wat\nm 1\n",                      // bad type
		"# TYPE m counter\nm{a=\"unterminated 1\n", // unterminated labels
		"# TYPE m counter\n{nometric=\"v\"} 1\n",   // missing name
		"",                                         // empty
	}
	for _, b := range bad {
		if err := ValidateExposition([]byte(b)); err == nil {
			t.Errorf("accepted invalid exposition %q", b)
		}
	}
	good := "# HELP m help text\n# TYPE m histogram\n" +
		"m_bucket{le=\"+Inf\"} 3\nm_sum 0.5\nm_count 3\nm{quantile=\"0.5\"} 1 1712000000\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("rejected valid exposition: %v", err)
	}
}

func TestStageNames(t *testing.T) {
	names := StageNames()
	want := []string{"parse", "chain", "join", "merge", "cache", "plan", "fault"}
	if len(names) != len(want) {
		t.Fatalf("stage names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("stage %d = %q, want %q", i, names[i], want[i])
		}
	}
}
