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
	sp := r.StartSpan(time.Now(), "//a", "Hybrid", "StructureFirst", 10)
	if sp != nil {
		t.Fatalf("nil registry produced a span")
	}
	sp.Rec(StageJoin, time.Millisecond)
	sp.SetRelaxations(3)
	sp.MarkCacheHit()
	sp.Finish("ok")
	if r.QueryCounts() != nil || r.SlowLog().Top(0) != nil {
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
	r := NewRegistry()
	sp := r.StartSpan(time.Now(), `//item[./a]`, "DPO", "Combined", 50)
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
	r := NewRegistry()
	sp := r.StartSpan(time.Now(), "q", "Hybrid", "StructureFirst", 10)
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

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-time.Second) // clamped, must not panic or corrupt
	h.Observe(time.Hour)    // overflow bucket
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != time.Hour {
		t.Errorf("sum = %v, want 1h (a negative duration adds nothing)", s.Sum)
	}
	if s.Counts[0] != 2 || s.Counts[histBuckets] != 1 {
		t.Errorf("first bucket = %d, overflow bucket = %d, want 2 and 1", s.Counts[0], s.Counts[histBuckets])
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

// The ring keeps the most recent entries, however fast, and Top ranks
// them slowest first.
func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(3)
	for i, d := range []time.Duration{1, 20, 40, 30, 50} {
		l.Add(SlowEntry{Query: string(rune('a' + i)), Total: d * time.Millisecond})
	}
	if n := len(l.Top(0)); n != 3 {
		t.Fatalf("len = %d, want 3 (ring capacity)", n)
	}
	top := l.Top(2)
	if len(top) != 2 || top[0].Total != 50*time.Millisecond || top[1].Total != 40*time.Millisecond {
		t.Errorf("top = %+v", top)
	}
	// The two oldest entries ("a", 1ms and "b", 20ms) were displaced.
	for _, e := range l.Top(0) {
		if e.Query == "a" || e.Query == "b" {
			t.Errorf("oldest entry %q not displaced", e.Query)
		}
	}
}

func TestWritePrometheusValidates(t *testing.T) {
	r := NewRegistry()
	for _, algo := range []string{"Hybrid", "DPO"} {
		sp := r.StartSpan(time.Now(), `//a[.contains("x")]`, algo, "StructureFirst", 10)
		sp.Rec(StageJoin, 3*time.Millisecond)
		sp.Finish("ok")
	}
	sp := r.StartSpan(time.Now(), "//b", "Hybrid", "KeywordFirst", 5)
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

// TestLabelValuesEscapedOnce renders a label value holding a quote, a
// backslash, a newline and a tab through a histogram and a labelled
// counter: the exposition validates, every sample reads the value back
// unchanged, and the counter prints as an integer.
func TestLabelValuesEscapedOnce(t *testing.T) {
	const v = "a\"b\\c\nd\te"
	h := NewHistogram()
	h.Observe(time.Millisecond)
	var sb strings.Builder
	WriteFamily(&sb, "m_seconds", "histogram", "A histogram.")
	WriteHistogram(&sb, "m_seconds", "shard", v, h.Snapshot())
	WriteFamily(&sb, "m_total", "counter", "A counter.", Sample{Labels: []string{"shard", v}, Value: uint64(12345678)})
	out := sb.String()
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	samples := 0
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		samples++
		_, rest, ok := strings.Cut(line, `{shard="`)
		if !ok {
			t.Fatalf("sample without the shard label: %q", line)
		}
		var got strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' {
				i++
				switch rest[i] {
				case 'n':
					got.WriteByte('\n')
				case '\\', '"':
					got.WriteByte(rest[i])
				default:
					t.Fatalf("escape \\%c is not an exposition escape: %q", rest[i], line)
				}
				continue
			}
			got.WriteByte(rest[i])
		}
		if got.String() != v {
			t.Errorf("label value reads back as %q, want %q: %q", got.String(), v, line)
		}
	}
	if samples == 0 {
		t.Fatal("no samples rendered")
	}
	if !strings.HasSuffix(out, "} 12345678\n") {
		t.Errorf("integer sample not printed as an integer:\n%s", out)
	}
}
