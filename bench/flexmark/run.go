package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"flexpath"
	"flexpath/bench/layers"
)

// config is one run's parameters. The driver sets the first four; the rest
// have defaults a user seldom changes.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	check    bool
	// scale shrinks corpus sizes and member counts. It is 1 in every real
	// run; the package's tests set it low so a whole run takes well under a
	// second.
	scale     float64
	flexserve string // path of the built cmd/flexserve binary
	outDir    string // where the traced run writes spans
}

// setupRepeats is how many times a run performs its whole set-up. setup_s is
// their median: one set-up of about a second is too exposed to a single
// scheduling hiccup to gate on.
const setupRepeats = 5

// workload is one of the four traffic mixes. The runner drives them all the
// same way: set up (several times), settle the heap, measure, read the
// resource counters, then verify.
type workload interface {
	// setup builds the corpus and everything the measured phase needs, and
	// runs one discarded warm-up round of the op mix. It may be called again
	// after close.
	setup() error
	// measure runs whole rounds of the op mix until at least d has passed,
	// recording one sample per op and, with a non-nil trace, a span around
	// each op.
	measure(d time.Duration, rec *recorder, tr *layers.Trace)
	// pid names the process under test: the harness itself for the
	// in-process workloads, the flexserve child for serve_mixed.
	pid() int
	// verify checks recorded answers that could not be judged on the spot
	// and marks the wrong ones failed.
	verify(rec *recorder) error
	// counters reads the cache and residency counters of the system
	// under test, for the traced run.
	counters() (layerCounters, error)
	// ladder returns what a traced run replays layer by layer: the corpus
	// as in-memory documents and a representative slice of the op mix.
	ladder() (docs []layers.NamedDoc, ops []layers.Op, err error)
	close()
}

// sample is one attempted operation.
type sample struct {
	class  int           // op class within the workload (query, shape or combination index)
	query  string        // the query text of an op that verify must evaluate again (coll_adhoc)
	d      time.Duration // latency; meaningless when failed
	digest uint64        // of the answers, for verification after the run
	failed bool
}

// recorder collects a run's samples. A failed, refused, timed-out or
// wrongly-answered op counts against the number attempted and contributes no
// latency sample.
//
// It also cuts the measured phase into segments of whole rounds, each at
// least segmentMin long, and notes the ops completed and the CPU used in
// each. Every search metric is computed per segment and reported as the
// median over segments: a shared host slows a run down for stretches of a
// few seconds at a time, which moves a whole-run mean or 95th percentile
// but, as long as most segments are clean, not the median segment.
type recorder struct {
	searches  []sample
	mutations []sample

	pid      int // process whose CPU the segments account for
	segs     []segment
	segStart time.Time
	segCPU   time.Duration
	segOps   [2]int // searches and mutations recorded when the segment began
}

// segment is one stretch of the measured phase.
type segment struct {
	wall, cpu time.Duration
	from, to  int // the segment's searches are recorder.searches[from:to]
	mutations int
}

const segmentMin = 2 * time.Second

func (r *recorder) search(class int, d time.Duration, digest uint64, err error) {
	r.searches = append(r.searches, sample{class: class, d: d, digest: digest, failed: err != nil})
}

func (r *recorder) mutation(d time.Duration, err error) {
	r.mutations = append(r.mutations, sample{d: d, failed: err != nil})
}

// start opens the first segment; a workload calls it as its measured phase
// begins.
func (r *recorder) start() {
	r.segStart, r.segCPU = time.Now(), cpuOf(r.pid)
	r.segOps = [2]int{len(r.searches), len(r.mutations)}
}

// endRound is called, by the goroutine that records searches, after each
// whole round of the op mix. It closes the current segment once that is long
// enough; final closes it regardless, at the end of the phase.
func (r *recorder) endRound(final bool) {
	now := time.Now()
	if wall := now.Sub(r.segStart); wall >= segmentMin || final && len(r.searches) > r.segOps[0] {
		cpu, mut := cpuOf(r.pid), len(r.mutations)
		r.segs = append(r.segs, segment{
			wall: wall, cpu: cpu - r.segCPU,
			from: r.segOps[0], to: len(r.searches), mutations: mut - r.segOps[1],
		})
		r.segStart, r.segCPU, r.segOps = now, cpu, [2]int{len(r.searches), mut}
	}
}

// cpuOf returns the CPU time process pid has used: exactly for the harness
// itself, to the kernel's 10 ms tick for a child.
func cpuOf(pid int) time.Duration {
	if pid == os.Getpid() {
		return selfCPU()
	}
	cpu, err := procCPU(pid)
	if err != nil {
		return 0 // the child is gone; the run fails on its next request
	}
	return cpu
}

func okMillis(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if !s.failed {
			out = append(out, float64(s.d)/1e6)
		}
	}
	return out
}

func countFailed(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.failed {
			n++
		}
	}
	return n
}

// layerCounters is a snapshot of the counters the system under test keeps
// about its own caches and residency.
type layerCounters struct {
	plan      flexpath.PlanCacheStats
	cache     flexpath.CacheStats
	residency flexpath.ResidencyStats
	// rebuildsPerFault is how many plan templates a member has had to build
	// since it was last faulted in (coll_cold only).
	rebuildsPerFault float64
}

func collectionCounters(c *flexpath.Collection) layerCounters {
	lc := layerCounters{residency: c.ResidencyStats()}
	lc.plan, _ = c.PlanCacheStats() // zero when disabled
	lc.cache, _ = c.CacheStats()
	return lc
}

// A ranking is folded into one number for comparison: rank, document, path,
// id, both scores (at the precision the repo's own byte-identity checks print
// them) and the admitting relaxation level of every answer.
func digestAnswer(h io.Writer, rank int, doc string, a flexpath.Answer) {
	fmt.Fprintf(h, "%d|%s|%s|%s|%.9f|%.9f|%d\n", rank, doc, a.Path, a.ID, a.Structural, a.Keyword, a.Relaxations)
}

func digestAnswers(as []flexpath.CollectionAnswer) uint64 {
	h := fnv.New64a()
	for i, a := range as {
		digestAnswer(h, i, a.DocName, a.Answer)
	}
	return h.Sum64()
}

func digestDocAnswers(as []flexpath.Answer) uint64 {
	h := fnv.New64a()
	for i, a := range as {
		digestAnswer(h, i, "", a)
	}
	return h.Sum64()
}

// measureRounds is the measured phase of every workload: whole rounds of the
// op mix until at least d has passed, a segment boundary offered after each.
func measureRounds(d time.Duration, rec *recorder, round func()) {
	rec.start()
	for t0 := time.Now(); ; {
		round()
		done := time.Since(t0) >= d
		rec.endRound(done)
		if done {
			return
		}
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output, in the form the
// benchmark contract fixes: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what a run writes beside its result line: the same numbers plus
// everything needed to tell two runs apart.
type record struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Trace     bool        `json:"trace"`
	Env       environment `json:"env"`
	Searches  int         `json:"search_samples"`
	Mutations int         `json:"mutation_samples"`
	MeasuredS float64     `json:"measured_s"`
	SetupS    []float64   `json:"setup_runs_s"`
	// The per-segment values whose medians the result reports, and the
	// median latency, which is recorded but is not an end-to-end metric.
	SegmentP50   []float64 `json:"segment_search_p50_ms,omitempty"`
	SegmentP95   []float64 `json:"segment_search_p95_ms,omitempty"`
	SegmentRates []float64 `json:"segment_searches_per_s,omitempty"`
	SegmentCPU   []float64 `json:"segment_cpu_ms_per_op,omitempty"`
	ShapeCheck   string    `json:"paper_shape_check,omitempty"`
	LadderCheck  string    `json:"ladder_check,omitempty"`
	Result       result    `json:"result"`
}

func newWorkload(cfg config, sb *sandbox) (workload, error) {
	switch cfg.workload {
	case "doc_paper":
		return &docPaper{cfg: cfg, sb: sb}, nil
	case "coll_adhoc":
		return &collAdhoc{cfg: cfg, sb: sb}, nil
	case "coll_cold":
		return &collCold{cfg: cfg, sb: sb}, nil
	case "serve_mixed":
		return &serveMixed{cfg: cfg, sb: sb, p: mixedParams(cfg.scale)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want doc_paper, coll_adhoc, coll_cold or serve_mixed)", cfg.workload)
}

// settle returns freed memory to the OS between set-up and measurement, so
// the measured phase starts from the corpus's live heap and not from set-up's
// garbage.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runOnce performs one run of one workload and returns its result line and
// its record.
func runOnce(cfg config, sb *sandbox) (result, record, error) {
	w, err := newWorkload(cfg, sb)
	if err != nil {
		return result{}, record{}, err
	}
	defer w.close()

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.close()
			settle()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return result{}, record{}, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	settle()

	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Env: describeEnvironment(), SetupS: setups,
	}
	if cfg.trace {
		res, err := runTraced(cfg, sb, w, &rec)
		return res, rec, err
	}

	r := recorder{pid: w.pid()}
	t0 := time.Now()
	w.measure(time.Duration(cfg.seconds*float64(time.Second)), &r, nil)
	wall := time.Since(t0)
	// Peak memory is read before verification, which allocates reference
	// copies of the corpus.
	rss, err := peakRSSMB(w.pid())
	if err != nil {
		return result{}, rec, err
	}
	if cfg.check {
		if err := w.verify(&r); err != nil {
			return result{}, rec, fmt.Errorf("%s verification: %w", cfg.workload, err)
		}
	}
	if dp, ok := w.(*docPaper); ok {
		rec.ShapeCheck = dp.shapeCheck(&r)
	}
	lat := okMillis(r.searches)
	mut := okMillis(r.mutations)
	ops := len(r.searches) + len(r.mutations)
	failed := countFailed(r.searches) + countFailed(r.mutations)
	if len(lat) == 0 || len(r.segs) == 0 {
		return result{}, rec, fmt.Errorf("%s: no successful samples (%d searches, %d mutations attempted)",
			cfg.workload, len(r.searches), len(r.mutations))
	}
	var p50s, p95s, rates, cpuPerOp []float64
	for _, s := range r.segs {
		ok := okMillis(r.searches[s.from:s.to]) // only verified searches count
		p50s = append(p50s, percentile(ok, 50))
		p95s = append(p95s, percentile(ok, 95))
		rates = append(rates, float64(len(ok))/s.wall.Seconds())
		cpuPerOp = append(cpuPerOp, float64(s.cpu)/1e6/float64(s.to-s.from+s.mutations))
	}
	res := result{
		Correct:   failed == 0,
		Attempted: ops,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"search_p95_ms":  {median(p95s), "ms"},
			"searches_per_s": {median(rates), "1/s"},
			"cpu_ms_per_op":  {median(cpuPerOp), "ms"},
			"peak_rss_mb":    {rss, "MB"},
		},
	}
	rec.Searches, rec.Mutations, rec.MeasuredS, rec.Result = len(lat), len(mut), wall.Seconds(), res
	rec.SegmentP50, rec.SegmentP95, rec.SegmentRates, rec.SegmentCPU = p50s, p95s, rates, cpuPerOp
	return res, rec, nil
}
