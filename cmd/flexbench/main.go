// Command flexbench regenerates the FleXPath paper's experiments
// (§6, Figures 9-16): DPO vs SSO vs Hybrid across document sizes, K, and
// number of relaxations, on XMark-style data with the paper's three
// workload queries. Two comparisons the paper argues but does not plot
// (Figure 17, the data-relaxation baseline; Figure 18, strict vs flexible
// recall) and the measurement of the default Auto's rule (auto) ride along.
//
// Usage:
//
//	flexbench                 # all figures at scaled-down sizes
//	flexbench -fig 10         # one figure (9..18 or auto)
//	flexbench -full           # the paper's sizes (1-100 MB, K to 600); slow
//	flexbench -runs 5         # median of N timed runs
//	flexbench -csv            # machine-readable output
//	flexbench -json out.json  # also write the rows as JSON
//
// Absolute times are not comparable to the paper's 2004 testbed; the
// claims under test are shape claims (who wins and how gaps grow).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"flexpath"
	"flexpath/internal/core"
	"flexpath/internal/inex"
	"flexpath/internal/ir"
	"flexpath/internal/rank"
	"flexpath/internal/stats"
	"flexpath/internal/topk"
	"flexpath/internal/tpq"
	"flexpath/internal/xmark"
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
	dieIf(err)
	d := flexpath.NewDocument(tree)
	h.docs[bytes] = d
	return d
}

// measure times one search, median over h.runs, after one warm-up run
// that also builds the (cached) relaxation chain so that timing covers
// top-K evaluation, as in the paper. It also returns the work counters of
// one run — the noise-free signal behind the timings.
func (h *harness) measure(d *flexpath.Document, w workload, algo flexpath.Algorithm, k int) (time.Duration, flexpath.Metrics) {
	return h.measureOpts(d, w, flexpath.SearchOptions{K: k, Algorithm: algo})
}

// measureOpts is measure for any search options.
func (h *harness) measureOpts(d *flexpath.Document, w workload, opts flexpath.SearchOptions) (time.Duration, flexpath.Metrics) {
	q := mustParse(w.query)
	var m flexpath.Metrics
	opts.Metrics = &m
	_, err := d.Search(q, opts) // warm-up
	dieIf(err)
	times := make([]time.Duration, h.runs)
	for i := range times {
		runtime.GC()
		start := time.Now()
		_, err := d.Search(q, opts)
		times[i] = time.Since(start)
		dieIf(err)
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
	dieIf(err)
	dieIf(os.WriteFile(h.jsonPath, append(b, '\n'), 0o644))
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
// showing why the paper dismissed data relaxation at scale. Data
// relaxation is not a library algorithm: it runs here on the relaxation
// chain the library builds for the same document, and fails once the
// closure exceeds dataRelaxBudget shortcut edges.
func (h *harness) fig17() {
	h.header(17, "extra: evaluation strategies (XQ2, K=100) incl. data relaxation")
	h.row("MB", "DPO_ms", "Hybrid_ms", "DataRelax_ms", "pairs")
	q, err := tpq.Parse(xq2.query)
	dieIf(err)
	for _, mb := range h.sizesMB() {
		d := h.doc(mb)
		dpo, _ := h.measure(d, xq2, flexpath.DPO, 100)
		hyb, _ := h.measure(d, xq2, flexpath.Hybrid, 100)
		tree := d.Tree()
		chain, err := core.BuildChainH(tree, ir.NewIndex(tree), stats.Collect(tree), rank.UniformWeights(), q, nil)
		dieIf(err)
		var m topk.Metrics
		start := time.Now()
		_, err = topk.DataRelax(chain, topk.Options{K: 100, Scheme: rank.StructureFirst, Metrics: &m}, dataRelaxBudget)
		dr := time.Since(start)
		if err != nil {
			h.row(mb, ms(dpo), ms(hyb), "FAILED", err.Error())
			continue
		}
		h.row(mb, ms(dpo), ms(hyb), ms(dr), m.PairsMaterialized)
	}
}

// dataRelaxBudget bounds how many shortcut edges fig17's data relaxation
// may materialize before declaring failure.
const dataRelaxBudget = 1 << 26

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
	dieIf(err)
	d := flexpath.NewDocument(tree)
	q := mustParse(`//article[./section[./algorithm and ./paragraph[.contains("xml" and "streaming")]]]`)
	// Ground truth: articles whose text contains both topics anywhere.
	truth := mustParse(`//article[.contains("xml" and "streaming")]`)
	relevant := map[string]bool{}
	ans, err := d.Search(truth, flexpath.SearchOptions{K: 1 << 20})
	dieIf(err)
	for _, a := range ans {
		if a.Relaxations == 0 {
			relevant[a.ID] = true
		}
	}
	flexAll, err := d.Search(q, flexpath.SearchOptions{K: 1 << 20})
	dieIf(err)
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

// mustParse parses a workload query or dies.
func mustParse(src string) *flexpath.Query {
	q, err := flexpath.ParseQuery(src)
	dieIf(err)
	return q
}

func dieIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(1)
	}
}

// The full-text workloads of figAuto: a keyword predicate below a
// structural one, and one on the item's description.
var (
	ftXML  = workload{"FT-xml", `//item[./description/parlist[.contains("xml")] and ./mailbox]`}
	ftGold = workload{"FT-gold", `//item[./description[.contains("gold silver")] and ./name]`}
)

// figAuto is NOT a figure of the paper: it measures the default Auto,
// which runs Hybrid for a keyword-first query with a contains predicate
// and DPO otherwise, against every fixed algorithm. It sweeps the three
// schemes, XQ1-XQ3, FT-xml and FT-gold and K from 5 to 600 on 1, 4 and
// 10 MB. Each row gives the fixed times, Auto's, the best fixed time and
// Auto's ratio to it; a "sum" row per size adds Auto's and the best fixed
// times over the size's 75 cases. The bars: Auto is at most 2x the best
// fixed algorithm on every case whose best fixed time is at least 0.5 ms,
// and a size's summed Auto time is no more than that of the cost-based
// planner Auto replaced (EXPERIMENTS.md).
func (h *harness) figAuto() {
	h.header(22, "extra: Auto's rule against every fixed algorithm")
	h.figName = "auto"
	h.row("MB", "scheme", "query", "K", "DPO_ms", "SSO_ms", "Hybrid_ms", "Auto_ms", "best_ms", "ratio", "chosen")
	for _, mb := range []float64{1, 4, h.mediumMB()} {
		d := h.doc(mb)
		var autoSum, bestSum time.Duration
		for _, scheme := range []flexpath.Scheme{flexpath.StructureFirst, flexpath.KeywordFirst, flexpath.Combined} {
			for _, w := range []workload{xq1, xq2, xq3, ftXML, ftGold} {
				for _, k := range []int{5, 10, 50, 200, 600} {
					var t [4]time.Duration
					var ma flexpath.Metrics
					for i, algo := range []flexpath.Algorithm{flexpath.DPO, flexpath.SSO, flexpath.Hybrid, flexpath.Auto} {
						t[i], ma = h.measureOpts(d, w, flexpath.SearchOptions{K: k, Algorithm: algo, Scheme: scheme})
					}
					best := min(t[0], t[1], t[2])
					autoSum, bestSum = autoSum+t[3], bestSum+best
					h.row(mb, scheme.String(), w.name, k, ms(t[0]), ms(t[1]), ms(t[2]), ms(t[3]),
						ms(best), ms(t[3])/ms(best), ma.Algorithm)
				}
			}
		}
		h.row(mb, "all", "sum", "", "", "", "", ms(autoSum), ms(bestSum), ms(autoSum)/ms(bestSum), "")
	}
}

func main() {
	fig := flag.String("fig", "all", "figure to run: 9..18, auto, or all")
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
	switch *fig {
	case "all":
		for i := 9; i <= 18; i++ {
			figs[i]()
		}
		h.figAuto()
	case "auto":
		h.figAuto()
	default:
		n, err := strconv.Atoi(*fig)
		if err != nil || figs[n] == nil {
			fmt.Fprintf(os.Stderr, "flexbench: unknown figure %q (want 9..18, auto, or all)\n", *fig)
			os.Exit(2)
		}
		figs[n]()
	}
	h.writeJSON()
}
