// Command flexbench regenerates the FleXPath paper's experiments
// (§6, Figures 9-16): DPO vs SSO vs Hybrid across document sizes, K, and
// number of relaxations, on XMark-style data with the paper's three
// workload queries.
//
// Usage:
//
//	flexbench                 # all figures at scaled-down sizes
//	flexbench -fig 10         # one figure
//	flexbench -full           # the paper's sizes (1-100 MB, K to 600); slow
//	flexbench -runs 5         # median of N timed runs
//	flexbench -csv            # machine-readable output
//
// Absolute times are not comparable to the paper's 2004 testbed; the
// claims under test are shape claims (who wins and how gaps grow).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"flexpath"
	"flexpath/internal/exec"
	"flexpath/internal/inex"
	"flexpath/internal/obs"
	"flexpath/internal/xmark"
	"flexpath/internal/xmltree"
)

type workload struct {
	name  string
	query string
}

// The paper's experiment queries (§6, "Dataset and Queries").
var (
	xq1 = workload{"XQ1", `//item[./description/parlist]`}
	xq2 = workload{"XQ2", `//item[./description/parlist and ./mailbox/mail/text]`}
	xq3 = workload{"XQ3", `//item[./description/parlist/listitem and ` +
		`./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]`}
)

type harness struct {
	full bool
	runs int
	csv  bool
	seed int64
	docs map[int64]*flexpath.Document

	// JSON capture: every figure's header row names the columns of the
	// data rows that follow; with -json set, rows accumulate as records
	// and are written out at exit.
	jsonPath string
	figName  string
	cols     []string
	records  []map[string]any
}

func (h *harness) doc(mb float64) *flexpath.Document {
	bytes := int64(mb * float64(1<<20))
	if d, ok := h.docs[bytes]; ok {
		return d
	}
	fmt.Fprintf(os.Stderr, "building %.2g MB document...\n", mb)
	tree, err := xmark.Build(xmark.Config{TargetBytes: bytes, Seed: h.seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	d := flexpath.NewDocument(tree)
	h.docs[bytes] = d
	return d
}

// measure times one search, median over h.runs, after one warm-up run
// that also builds the (cached) relaxation chain so that timing covers
// top-K evaluation, as in the paper. It also returns the work counters of
// one run — the noise-free signal behind the timings.
func (h *harness) measure(d *flexpath.Document, w workload, algo flexpath.Algorithm, k int) (time.Duration, flexpath.Metrics) {
	q, err := flexpath.ParseQuery(w.query)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	var m flexpath.Metrics
	opts := flexpath.SearchOptions{K: k, Algorithm: algo, Metrics: &m}
	if _, err := d.Search(q, opts); err != nil { // warm-up
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	times := make([]time.Duration, h.runs)
	for i := range times {
		runtime.GC()
		start := time.Now()
		if _, err := d.Search(q, opts); err != nil {
			fmt.Fprintln(os.Stderr, "flexbench:", err)
			os.Exit(1)
		}
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], m
}

func (h *harness) sizesMB() []float64 {
	if h.full {
		return []float64{1, 10, 25, 50, 100}
	}
	return []float64{1, 2, 4, 8, 16}
}

func (h *harness) kSweep() []int {
	return []int{50, 100, 200, 300, 400, 500, 600}
}

func (h *harness) mediumMB() float64 { return 10 }

func (h *harness) largeMB() float64 {
	if h.full {
		return 100
	}
	return 25
}

func (h *harness) row(cols ...interface{}) {
	h.capture(cols)
	if h.csv {
		for i, c := range cols {
			if i > 0 {
				fmt.Print(",")
			}
			fmt.Print(c)
		}
		fmt.Println()
		return
	}
	for _, c := range cols {
		switch v := c.(type) {
		case string:
			fmt.Printf("%-10s", v)
		case int:
			fmt.Printf("%-10d", v)
		case float64:
			fmt.Printf("%-10.2f", v)
		case time.Duration:
			fmt.Printf("%-12s", v.Round(10*time.Microsecond))
		default:
			fmt.Printf("%-10v", v)
		}
	}
	fmt.Println()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// capture records a row for -json output. A row whose columns are all
// strings is a header naming the columns; any other row is data zipped
// against the current header.
func (h *harness) capture(cols []interface{}) {
	if h.jsonPath == "" {
		return
	}
	allStrings := true
	for _, c := range cols {
		if _, ok := c.(string); !ok {
			allStrings = false
			break
		}
	}
	if allStrings {
		h.cols = make([]string, len(cols))
		for i, c := range cols {
			h.cols[i] = c.(string)
		}
		return
	}
	rec := map[string]any{"figure": h.figName}
	for i, c := range cols {
		name := "col" + strconv.Itoa(i)
		if i < len(h.cols) {
			name = h.cols[i]
		}
		if d, ok := c.(time.Duration); ok {
			c = ms(d)
		}
		rec[name] = c
	}
	h.records = append(h.records, rec)
}

// writeJSON dumps the captured benchmark records.
func (h *harness) writeJSON() {
	if h.jsonPath == "" {
		return
	}
	out := map[string]any{
		"generated_unix": time.Now().Unix(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"full":           h.full,
		"runs":           h.runs,
		"seed":           h.seed,
		"records":        h.records,
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(h.jsonPath, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", len(h.records), h.jsonPath)
}

func (h *harness) header(fig int, title string) {
	h.figName = "fig" + strconv.Itoa(fig)
	fmt.Printf("\n# Figure %d — %s\n", fig, title)
}

// fig9: DPO vs SSO varying the number of relaxations (1 MB, K=50).
func (h *harness) fig9() {
	mb := 1.0
	h.header(9, fmt.Sprintf("varying number of relaxations (doc=%gMB, K=50)", mb))
	d := h.doc(mb)
	h.row("query", "DPO_ms", "SSO_ms", "speedup", "DPO_lvls", "SSO_enc")
	for _, w := range []workload{xq1, xq2, xq3} {
		dpo, md := h.measure(d, w, flexpath.DPO, 50)
		sso, ms2 := h.measure(d, w, flexpath.SSO, 50)
		h.row(w.name, ms(dpo), ms(sso), ms(dpo)/ms(sso), md.QueriesEvaluated, ms2.RelaxationsEncoded)
	}
}

// fig10: DPO vs SSO varying K (medium doc, XQ3).
func (h *harness) fig10() {
	mb := h.mediumMB()
	h.header(10, fmt.Sprintf("varying K (doc=%gMB, XQ3)", mb))
	d := h.doc(mb)
	h.row("K", "DPO_ms", "SSO_ms", "speedup", "DPO_lvls", "SSO_enc")
	for _, k := range h.kSweep() {
		dpo, md := h.measure(d, xq3, flexpath.DPO, k)
		sso, ms2 := h.measure(d, xq3, flexpath.SSO, k)
		h.row(k, ms(dpo), ms(sso), ms(dpo)/ms(sso), md.QueriesEvaluated, ms2.RelaxationsEncoded)
	}
}

func (h *harness) sizeSweep(fig int, w workload, k int, a, b flexpath.Algorithm, an, bn string) {
	h.header(fig, fmt.Sprintf("varying document size (%s, K=%d): %s vs %s", w.name, k, an, bn))
	h.row("MB", an+"_ms", bn+"_ms", "speedup", an+"_tup", bn+"_tup")
	for _, mb := range h.sizesMB() {
		d := h.doc(mb)
		ta, ma := h.measure(d, w, a, k)
		tb, mb2 := h.measure(d, w, b, k)
		h.row(mb, ms(ta), ms(tb), ms(ta)/ms(tb), ma.TuplesGenerated, mb2.TuplesGenerated)
	}
}

// fig11/12: DPO vs SSO varying document size at small and large K (XQ2).
func (h *harness) fig11() { h.sizeSweep(11, xq2, 12, flexpath.DPO, flexpath.SSO, "DPO", "SSO") }
func (h *harness) fig12() { h.sizeSweep(12, xq2, 500, flexpath.DPO, flexpath.SSO, "DPO", "SSO") }

// fig13: SSO vs Hybrid varying the number of relaxations (medium doc,
// K=500).
func (h *harness) fig13() {
	mb := h.mediumMB()
	h.header(13, fmt.Sprintf("varying number of relaxations (doc=%gMB, K=500): SSO vs Hybrid", mb))
	d := h.doc(mb)
	h.row("query", "SSO_ms", "Hybrid_ms", "speedup", "sorted", "buckets")
	for _, w := range []workload{xq1, xq2, xq3} {
		sso, ms2 := h.measure(d, w, flexpath.SSO, 500)
		hyb, mh := h.measure(d, w, flexpath.Hybrid, 500)
		h.row(w.name, ms(sso), ms(hyb), ms(sso)/ms(hyb), ms2.SortedTuples, mh.Buckets)
	}
}

// fig14: SSO vs Hybrid varying document size (XQ3, K=500).
func (h *harness) fig14() {
	h.sizeSweep(14, xq3, 500, flexpath.SSO, flexpath.Hybrid, "SSO", "Hybrid")
}

func (h *harness) kSweepFig(fig int, mb float64) {
	h.header(fig, fmt.Sprintf("varying K (doc=%gMB, XQ3): SSO vs Hybrid", mb))
	d := h.doc(mb)
	h.row("K", "SSO_ms", "Hybrid_ms", "speedup", "sorted", "buckets")
	for _, k := range h.kSweep() {
		sso, ms2 := h.measure(d, xq3, flexpath.SSO, k)
		hyb, mh := h.measure(d, xq3, flexpath.Hybrid, k)
		h.row(k, ms(sso), ms(hyb), ms(sso)/ms(hyb), ms2.SortedTuples, mh.Buckets)
	}
}

// fig15/16: SSO vs Hybrid varying K on the medium and large documents.
func (h *harness) fig15() { h.kSweepFig(15, h.mediumMB()) }
func (h *harness) fig16() { h.kSweepFig(16, h.largeMB()) }

// fig17 is NOT a figure of the paper: it compares the three evaluation
// strategies the paper's §7 surveys — rewriting (DPO), plan-based
// (Hybrid) and data relaxation (APPROXML-style shortcut-edge closure) —
// showing why the paper dismissed data relaxation at scale.
func (h *harness) fig17() {
	h.header(17, "extra: evaluation strategies (XQ2, K=100) incl. data relaxation")
	h.row("MB", "DPO_ms", "Hybrid_ms", "DataRelax_ms", "pairs")
	q, err := flexpath.ParseQuery(xq2.query)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	for _, mb := range h.sizesMB() {
		d := h.doc(mb)
		dpo, _ := h.measure(d, xq2, flexpath.DPO, 100)
		hyb, _ := h.measure(d, xq2, flexpath.Hybrid, 100)
		var m flexpath.Metrics
		start := time.Now()
		_, err := d.Search(q, flexpath.SearchOptions{
			K: 100, Algorithm: flexpath.DataRelaxation, Metrics: &m,
		})
		dr := time.Since(start)
		if err != nil {
			h.row(mb, ms(dpo), ms(hyb), "FAILED", err.Error())
			continue
		}
		h.row(mb, ms(dpo), ms(hyb), ms(dr), m.PairsMaterialized)
	}
}

// fig18 is NOT a figure of the paper: it quantifies the utility argument
// of the paper's introduction on an INEX-like heterogeneous article
// corpus. Ground truth = articles containing the query topics anywhere
// (what a patient reader would call relevant). A strict interpretation of
// the structured query misses most of them ("the user is penalized for
// providing context"); FleXPath's flexible interpretation recovers them,
// ranked by structural faithfulness.
func (h *harness) fig18() {
	h.header(18, "extra: strict vs flexible recall on a heterogeneous article corpus")
	tree, err := inex.Build(inex.Config{Articles: 500, Seed: 42})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	d := flexpath.NewDocument(tree)
	q, err := flexpath.ParseQuery(
		`//article[./section[./algorithm and ./paragraph[.contains("xml" and "streaming")]]]`)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	// Ground truth: articles whose text contains both topics anywhere.
	truth, err := flexpath.ParseQuery(`//article[.contains("xml" and "streaming")]`)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	relevant := map[string]bool{}
	ans, err := d.Search(truth, flexpath.SearchOptions{K: 1 << 20})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	for _, a := range ans {
		if a.Relaxations == 0 {
			relevant[a.ID] = true
		}
	}
	flexAll, err := d.Search(q, flexpath.SearchOptions{K: 1 << 20})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	strict := 0
	for _, a := range flexAll {
		if a.Relaxations == 0 && relevant[a.ID] {
			strict++
		}
	}
	h.row("K", "strict_recall", "flexpath_recall")
	for _, k := range []int{25, 50, 100, 200, len(relevant)} {
		hits := 0
		for i, a := range flexAll {
			if i >= k {
				break
			}
			if relevant[a.ID] {
				hits++
			}
		}
		sr := float64(min(strict, k)) / float64(len(relevant))
		fr := float64(hits) / float64(len(relevant))
		h.row(k, sr, fr)
	}
	fmt.Printf("(relevant articles: %d; exact structural matches: %d)\n", len(relevant), strict)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// mustParse parses a workload query or dies.
func mustParse(src string) *flexpath.Query {
	q, err := flexpath.ParseQuery(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	return q
}

// countAllocs reports heap allocations per call of fn, averaged over
// runs calls. It is the flexbench analogue of testing.B's allocs/op.
func countAllocs(runs int, fn func()) float64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// median times fn h.runs times and returns the median.
func (h *harness) median(fn func()) time.Duration {
	times := make([]time.Duration, h.runs)
	for i := range times {
		runtime.GC()
		start := time.Now()
		fn()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2]
}

// renderAnswers serializes a ranking for byte-identity comparison.
func renderAnswers(answers []flexpath.CollectionAnswer) string {
	out := ""
	for i, a := range answers {
		out += fmt.Sprintf("%d|%s|%s|%.9f|%.9f|%d\n",
			i, a.DocName, a.Path, a.Structural, a.Keyword, a.Relaxations)
	}
	return out
}

func renderDocAnswers(answers []flexpath.Answer) string {
	out := ""
	for i, a := range answers {
		out += fmt.Sprintf("%d|%s|%.9f|%.9f|%d\n",
			i, a.Path, a.Structural, a.Keyword, a.Relaxations)
	}
	return out
}

// figCache is NOT a figure of the paper: it measures the serving-layer
// query-result cache on the repeated-query workload. Cold times bypass
// the cache (NoCache); warm times hit it. The cached ranking must be
// byte-identical to a cold evaluation for every algorithm.
func (h *harness) figCache() {
	mb := 1.0
	h.header(19, fmt.Sprintf("extra: repeated queries, cold vs warm result cache (doc=%gMB, XQ2, K=50)", mb))
	h.figName = "cache"
	d := h.doc(mb)
	d.SetCache(256)
	q := mustParse(xq2.query)
	h.row("algo", "cold_ms", "warm_ms", "speedup", "identical")
	for _, algo := range []flexpath.Algorithm{flexpath.Hybrid, flexpath.SSO, flexpath.DPO} {
		opts := flexpath.SearchOptions{K: 50, Algorithm: algo}
		cold := opts
		cold.NoCache = true
		coldAns, err := d.Search(q, cold) // also warms the chain cache
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexbench:", err)
			os.Exit(1)
		}
		coldT := h.median(func() {
			if _, err := d.Search(q, cold); err != nil {
				fmt.Fprintln(os.Stderr, "flexbench:", err)
				os.Exit(1)
			}
		})
		warmAns, err := d.Search(q, opts) // prime the cache (miss)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexbench:", err)
			os.Exit(1)
		}
		warmT := h.median(func() {
			var err error
			warmAns, err = d.Search(q, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "flexbench:", err)
				os.Exit(1)
			}
		})
		identical := renderDocAnswers(coldAns) == renderDocAnswers(warmAns)
		h.row(algo.String(), ms(coldT), ms(warmT), ms(coldT)/ms(warmT), identical)
	}
	if cs, ok := d.CacheStats(); ok {
		fmt.Printf("(cache: %d hits, %d misses, %d entries)\n", cs.Hits, cs.Misses, cs.Entries)
	}
}

// figPlanCache is NOT a figure of the paper: it measures the
// plan-template cache on the repeated-query-shape workload. Cold times
// run with the cache disabled (every search rebuilds the relaxation
// chain, enumerates levels and constructs its join plans); hit times
// reuse a warmed template. Both sides bypass the result cache, so the
// difference is pure template work. Rankings must be byte-identical.
func (h *harness) figPlanCache() {
	mb := 1.0
	h.header(24, fmt.Sprintf("extra: repeated query shapes, cold vs warm plan-template cache (doc=%gMB, XQ2, K=50)", mb))
	h.figName = "plancache"
	d := h.doc(mb)
	q := mustParse(xq2.query)
	h.row("algo", "cold_ms", "hit_ms", "speedup", "identical")
	for _, algo := range []flexpath.Algorithm{flexpath.Hybrid, flexpath.SSO, flexpath.DPO, flexpath.Auto} {
		opts := flexpath.SearchOptions{K: 50, Algorithm: algo, NoCache: true}
		d.SetPlanCache(0)
		coldAns, err := d.Search(q, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexbench:", err)
			os.Exit(1)
		}
		coldT := h.median(func() {
			var err error
			coldAns, err = d.Search(q, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "flexbench:", err)
				os.Exit(1)
			}
		})
		d.SetPlanCache(256)
		hitAns, err := d.Search(q, opts) // prime the template (miss)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexbench:", err)
			os.Exit(1)
		}
		hitT := h.median(func() {
			var err error
			hitAns, err = d.Search(q, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "flexbench:", err)
				os.Exit(1)
			}
		})
		identical := renderDocAnswers(coldAns) == renderDocAnswers(hitAns)
		h.row(algo.String(), ms(coldT), ms(hitT), ms(coldT)/ms(hitT), identical)
	}
	if ps, ok := d.PlanCacheStats(); ok {
		fmt.Printf("(plan cache: %d hits, %d misses, %d entries)\n", ps.Hits, ps.Misses, ps.Entries)
	}
	d.SetPlanCache(flexpath.DefaultPlanCacheCapacity)
}

// figParallel is NOT a figure of the paper: it measures parallel
// Collection.Search against sequential evaluation of the same corpus.
// The merged rankings must be byte-identical.
func (h *harness) figParallel() {
	const nDocs = 8
	mb := 0.5
	if h.full {
		mb = 2
	}
	h.header(20, fmt.Sprintf("extra: collection search, sequential vs %d workers (%d docs x %gMB, XQ2, K=50)",
		runtime.GOMAXPROCS(0), nDocs, mb))
	h.figName = "parallel"
	coll := flexpath.NewCollection()
	for i := 0; i < nDocs; i++ {
		fmt.Fprintf(os.Stderr, "building document %d/%d...\n", i+1, nDocs)
		tree, err := xmark.Build(xmark.Config{
			TargetBytes: int64(mb * float64(1<<20)), Seed: h.seed + int64(i),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexbench:", err)
			os.Exit(1)
		}
		if err := coll.Add(fmt.Sprintf("doc%02d.xml", i), flexpath.NewDocument(tree)); err != nil {
			fmt.Fprintln(os.Stderr, "flexbench:", err)
			os.Exit(1)
		}
	}
	q := mustParse(xq2.query)
	seqOpts := flexpath.SearchOptions{K: 50, Workers: 1, NoCache: true}
	parOpts := flexpath.SearchOptions{K: 50, NoCache: true} // Workers: GOMAXPROCS
	seqAns, err := coll.Search(q, seqOpts)                  // warm chains
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	parAns, err := coll.Search(q, parOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	seqT := h.median(func() {
		var err error
		seqAns, err = coll.Search(q, seqOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexbench:", err)
			os.Exit(1)
		}
	})
	parT := h.median(func() {
		var err error
		parAns, err = coll.Search(q, parOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexbench:", err)
			os.Exit(1)
		}
	})
	identical := renderAnswers(seqAns) == renderAnswers(parAns)
	h.row("docs", "seq_ms", "par_ms", "speedup", "workers", "identical")
	h.row(nDocs, ms(seqT), ms(parT), ms(seqT)/ms(parT), runtime.GOMAXPROCS(0), identical)
}

// figObs is NOT a figure of the paper: it measures the cost of the
// observability layer by running the same searches bare and with an
// active span recording per-stage latency into a registry. Each timed
// sample batches several searches so the clock resolution and scheduler
// noise don't swamp the per-query delta; the acceptance bar for the
// serving layer is overhead below 5%.
func (h *harness) figObs() {
	mb := 1.0
	const batch = 20
	h.header(21, fmt.Sprintf("extra: observability overhead (doc=%gMB, XQ2, K=50, %d searches/sample)", mb, batch))
	h.figName = "obs"
	d := h.doc(mb)
	q := mustParse(xq2.query)
	reg := obs.NewRegistry(128, 0)
	h.row("algo", "bare_ms", "instr_ms", "overhead_pct")
	for _, algo := range []flexpath.Algorithm{flexpath.Hybrid, flexpath.SSO, flexpath.DPO} {
		opts := flexpath.SearchOptions{K: 50, Algorithm: algo, NoCache: true}
		if _, err := d.Search(q, opts); err != nil { // warm the chain cache
			fmt.Fprintln(os.Stderr, "flexbench:", err)
			os.Exit(1)
		}
		bare := h.median(func() {
			for i := 0; i < batch; i++ {
				if _, err := d.SearchContext(context.Background(), q, opts); err != nil {
					fmt.Fprintln(os.Stderr, "flexbench:", err)
					os.Exit(1)
				}
			}
		})
		instr := h.median(func() {
			for i := 0; i < batch; i++ {
				span := reg.StartSpan(xq2.query, algo.String(), "structure-first", 50)
				ctx := obs.WithSpan(context.Background(), span)
				_, err := d.SearchContext(ctx, q, opts)
				if err != nil {
					fmt.Fprintln(os.Stderr, "flexbench:", err)
					os.Exit(1)
				}
				span.Finish("ok")
			}
		})
		h.row(algo.String(), ms(bare)/batch, ms(instr)/batch,
			100*(float64(instr)-float64(bare))/float64(bare))
	}
}

// figAuto is NOT a figure of the paper: it evaluates the cost-based
// planner (Algorithm Auto, the default) against every hand-picked
// algorithm. For each workload query and K it times DPO, SSO, Hybrid
// and Auto, then reports the ratio of Auto to the best fixed choice and
// which algorithm the planner picked. The acceptance bar is Auto within
// ~10% of the best fixed algorithm on every row (ratio <= 1.10, modulo
// timing noise: Auto adds one planner pass per query).
func (h *harness) figAuto() {
	mb := h.mediumMB()
	h.header(22, fmt.Sprintf("extra: cost-based algorithm selection (doc=%gMB)", mb))
	h.figName = "auto"
	d := h.doc(mb)
	h.row("query", "K", "DPO_ms", "SSO_ms", "Hybrid_ms", "Auto_ms", "best_ms", "ratio", "chosen")
	for _, w := range []workload{xq1, xq2, xq3} {
		for _, k := range []int{50, 200, 600} {
			dpo, _ := h.measure(d, w, flexpath.DPO, k)
			sso, _ := h.measure(d, w, flexpath.SSO, k)
			hyb, _ := h.measure(d, w, flexpath.Hybrid, k)
			auto, ma := h.measure(d, w, flexpath.Auto, k)
			best := dpo
			if sso < best {
				best = sso
			}
			if hyb < best {
				best = hyb
			}
			h.row(w.name, k, ms(dpo), ms(sso), ms(hyb), ms(auto),
				ms(best), ms(auto)/ms(best), ma.Algorithm)
		}
	}
}

// figJoins is NOT a figure of the paper: it profiles the columnar
// block-at-a-time join kernels against their allocating wrappers on real
// XMark tag lists, then shows what the scratch arena buys a template-hit
// search end to end. The arena rows should report ~0 allocs/op once the
// arena chunk is warm; the search rows isolate the execution-dominated
// regime (plan template warmed, result cache bypassed) where the
// columnar core is the whole story.
func (h *harness) figJoins() {
	h.header(25, "extra: columnar join kernels, allocating wrapper vs arena (2MB XMark tag lists)")
	h.figName = "joins"
	tree, err := xmark.Build(xmark.Config{TargetBytes: 2 << 20, Seed: h.seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
	items := tree.NodesWithTag("item")
	descs := tree.NodesWithTag("description")
	keywords := tree.NodesWithTag("keyword")
	kernels := []struct {
		name         string
		batch        func(*xmltree.Document, []xmltree.NodeID, []xmltree.NodeID) []xmltree.NodeID
		into         func(*exec.Arena, []xmltree.NodeID, *xmltree.Document, []xmltree.NodeID, []xmltree.NodeID) []xmltree.NodeID
		outer, inner []xmltree.NodeID
	}{
		{"HasDescendant", exec.SemiJoinHasDescendant, exec.SemiJoinHasDescendantInto, items, keywords},
		{"HasChild", exec.SemiJoinHasChild, exec.SemiJoinHasChildInto, items, descs},
		{"DescendantOf", exec.SemiJoinDescendantOf, exec.SemiJoinDescendantOfInto, keywords, items},
		{"ChildOf", exec.SemiJoinChildOf, exec.SemiJoinChildOfInto, descs, items},
	}
	const reps = 50 // calls per timed sample; kernels run in microseconds
	usPer := func(d time.Duration) float64 { return float64(d) / float64(reps) / 1e3 }
	a := exec.NewArena()
	h.row("kernel", "alloc_us", "arena_us", "speedup", "alloc_allocs", "arena_allocs")
	for _, kc := range kernels {
		kc := kc
		allocRun := func() {
			for i := 0; i < reps; i++ {
				kc.batch(tree, kc.outer, kc.inner)
			}
		}
		arenaRun := func() {
			for i := 0; i < reps; i++ {
				a.Reset()
				kc.into(a, a.Nodes(len(kc.outer)), tree, kc.outer, kc.inner)
			}
		}
		allocRun() // warm-up
		arenaRun() // ...and warm the arena chunk
		at := h.median(allocRun)
		bt := h.median(arenaRun)
		aAllocs := countAllocs(200, func() { kc.batch(tree, kc.outer, kc.inner) })
		bAllocs := countAllocs(200, func() {
			a.Reset()
			kc.into(a, a.Nodes(len(kc.outer)), tree, kc.outer, kc.inner)
		})
		h.row(kc.name, usPer(at), usPer(bt), float64(at)/float64(bt), aAllocs, bAllocs)
	}
	// Template-hit searches on the same document: the plan template is
	// warmed and the result cache bypassed, so both time and allocations
	// are dominated by the join kernels and the per-search arena.
	d := flexpath.NewDocument(tree)
	h.row("query", "K", "hit_ms", "hit_allocs")
	for _, w := range []workload{xq1, xq2} {
		q := mustParse(w.query)
		for _, k := range []int{100, 400} {
			opts := flexpath.SearchOptions{K: k, Algorithm: flexpath.Hybrid, NoCache: true}
			run := func() {
				if _, err := d.Search(q, opts); err != nil {
					fmt.Fprintln(os.Stderr, "flexbench:", err)
					os.Exit(1)
				}
			}
			run() // prime the plan template
			t := h.median(run)
			h.row(w.name, k, ms(t), countAllocs(h.runs, run))
		}
	}
}

func main() {
	fig := flag.String("fig", "all", "figure to run: 9..18, cache, plancache, parallel, obs, auto, joins, or all")
	full := flag.Bool("full", false, "use the paper's document sizes (1-100 MB); slow")
	runs := flag.Int("runs", 3, "timed runs per point (median reported)")
	csv := flag.Bool("csv", false, "CSV output")
	seed := flag.Int64("seed", 42, "data generator seed")
	jsonOut := flag.String("json", "", "also write results as JSON to this file")
	flag.Parse()

	h := &harness{full: *full, runs: *runs, csv: *csv, seed: *seed,
		jsonPath: *jsonOut, docs: make(map[int64]*flexpath.Document)}

	figs := map[int]func(){
		9: h.fig9, 10: h.fig10, 11: h.fig11, 12: h.fig12,
		13: h.fig13, 14: h.fig14, 15: h.fig15, 16: h.fig16,
		17: h.fig17, 18: h.fig18,
	}
	named := map[string]func(){
		"cache":     h.figCache,
		"plancache": h.figPlanCache,
		"parallel":  h.figParallel,
		"obs":       h.figObs,
		"auto":      h.figAuto,
		"joins":     h.figJoins,
	}
	switch {
	case *fig == "all":
		for i := 9; i <= 18; i++ {
			figs[i]()
		}
		h.figCache()
		h.figPlanCache()
		h.figParallel()
		h.figObs()
		h.figAuto()
		h.figJoins()
	case named[*fig] != nil:
		named[*fig]()
	default:
		n, err := strconv.Atoi(*fig)
		if err != nil || figs[n] == nil {
			fmt.Fprintf(os.Stderr,
				"flexbench: unknown figure %q (want 9..18, cache, plancache, parallel, obs, auto, joins, or all)\n", *fig)
			os.Exit(2)
		}
		figs[n]()
	}
	h.writeJSON()
}
