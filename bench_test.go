package flexpath

// Benchmarks regenerating the FleXPath paper's experiments (§6). One
// benchmark group per figure; cmd/flexbench runs the same sweeps at the
// paper's full scales and prints the series. Document sizes here are kept
// small so `go test -bench=.` completes quickly; see EXPERIMENTS.md for
// the shapes at 1-100 MB.

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"flexpath/internal/xmark"
)

// Experiment queries (§6, "Dataset and Queries").
const (
	benchXQ1 = `//item[./description/parlist]`
	benchXQ2 = `//item[./description/parlist and ./mailbox/mail/text]`
	benchXQ3 = `//item[./description/parlist/listitem and ` +
		`./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]`
)

var (
	benchDocs   = map[int64]*Document{}
	benchDocsMu sync.Mutex
)

func benchDoc(b *testing.B, kb int64) *Document {
	b.Helper()
	benchDocsMu.Lock()
	defer benchDocsMu.Unlock()
	if d, ok := benchDocs[kb]; ok {
		return d
	}
	tree, err := xmark.Build(xmark.Config{TargetBytes: kb << 10, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	d := NewDocument(tree)
	benchDocs[kb] = d
	return d
}

func benchSearch(b *testing.B, d *Document, query string, algo Algorithm, k int) {
	b.Helper()
	q := MustParseQuery(query)
	opts := SearchOptions{K: k, Algorithm: algo}
	if _, err := d.Search(q, opts); err != nil { // warm up chain + IR caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Search(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig09 — Figure 9: DPO vs SSO while the number of admissible
// relaxations grows (XQ1 < XQ2 < XQ3), 1 MB document, K=50.
func BenchmarkFig09(b *testing.B) {
	d := benchDoc(b, 1<<10)
	for _, w := range []struct{ name, q string }{
		{"XQ1", benchXQ1}, {"XQ2", benchXQ2}, {"XQ3", benchXQ3},
	} {
		for _, algo := range []Algorithm{DPO, SSO} {
			b.Run(fmt.Sprintf("%s/%v", w.name, algo), func(b *testing.B) {
				benchSearch(b, d, w.q, algo, 50)
			})
		}
	}
}

// BenchmarkFig10 — Figure 10: DPO vs SSO as K grows, XQ3.
func BenchmarkFig10(b *testing.B) {
	d := benchDoc(b, 4<<10)
	for _, k := range []int{50, 200, 600} {
		for _, algo := range []Algorithm{DPO, SSO} {
			b.Run(fmt.Sprintf("K=%d/%v", k, algo), func(b *testing.B) {
				benchSearch(b, d, benchXQ3, algo, k)
			})
		}
	}
}

// BenchmarkFig11 — Figure 11: DPO vs SSO across document sizes at small K
// (XQ2, K=12); the algorithms should be close.
func BenchmarkFig11(b *testing.B) {
	for _, kb := range []int64{512, 1 << 10, 2 << 10, 4 << 10} {
		d := benchDoc(b, kb)
		for _, algo := range []Algorithm{DPO, SSO} {
			b.Run(fmt.Sprintf("%dKB/%v", kb, algo), func(b *testing.B) {
				benchSearch(b, d, benchXQ2, algo, 12)
			})
		}
	}
}

// BenchmarkFig12 — Figure 12: DPO vs SSO across document sizes at large K
// (XQ2, K=500); SSO should win and the gap grow with size.
func BenchmarkFig12(b *testing.B) {
	for _, kb := range []int64{512, 1 << 10, 2 << 10, 4 << 10} {
		d := benchDoc(b, kb)
		for _, algo := range []Algorithm{DPO, SSO} {
			b.Run(fmt.Sprintf("%dKB/%v", kb, algo), func(b *testing.B) {
				benchSearch(b, d, benchXQ2, algo, 500)
			})
		}
	}
}

// BenchmarkFig13 — Figure 13: SSO vs Hybrid while the number of
// relaxations grows (K=500).
func BenchmarkFig13(b *testing.B) {
	d := benchDoc(b, 4<<10)
	for _, w := range []struct{ name, q string }{
		{"XQ1", benchXQ1}, {"XQ2", benchXQ2}, {"XQ3", benchXQ3},
	} {
		for _, algo := range []Algorithm{SSO, Hybrid} {
			b.Run(fmt.Sprintf("%s/%v", w.name, algo), func(b *testing.B) {
				benchSearch(b, d, w.q, algo, 500)
			})
		}
	}
}

// BenchmarkFig14 — Figure 14: SSO vs Hybrid across document sizes (XQ3,
// K=500).
func BenchmarkFig14(b *testing.B) {
	for _, kb := range []int64{512, 1 << 10, 2 << 10, 4 << 10} {
		d := benchDoc(b, kb)
		for _, algo := range []Algorithm{SSO, Hybrid} {
			b.Run(fmt.Sprintf("%dKB/%v", kb, algo), func(b *testing.B) {
				benchSearch(b, d, benchXQ3, algo, 500)
			})
		}
	}
}

// BenchmarkFig15 — Figure 15: SSO vs Hybrid as K grows (medium document,
// XQ3).
func BenchmarkFig15(b *testing.B) {
	d := benchDoc(b, 4<<10)
	for _, k := range []int{50, 200, 600} {
		for _, algo := range []Algorithm{SSO, Hybrid} {
			b.Run(fmt.Sprintf("K=%d/%v", k, algo), func(b *testing.B) {
				benchSearch(b, d, benchXQ3, algo, k)
			})
		}
	}
}

// BenchmarkFig16 — Figure 16: SSO vs Hybrid as K grows on the large
// document (XQ3).
func BenchmarkFig16(b *testing.B) {
	d := benchDoc(b, 8<<10)
	for _, k := range []int{50, 200, 600} {
		for _, algo := range []Algorithm{SSO, Hybrid} {
			b.Run(fmt.Sprintf("K=%d/%v", k, algo), func(b *testing.B) {
				benchSearch(b, d, benchXQ3, algo, k)
			})
		}
	}
}

// BenchmarkAblationDPOSemijoin quantifies how much of DPO's cost comes
// from materializing full match tuples per level: the semijoin variant
// evaluates the same relaxation chain with existential two-pass joins.
// (Not a paper figure; see DESIGN.md, ablations.)
func BenchmarkAblationDPOSemijoin(b *testing.B) {
	d := benchDoc(b, 2<<10)
	q := MustParseQuery(benchXQ3)
	chain, err := d.chain(q, Weights{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plan-DPO", func(b *testing.B) {
		benchSearch(b, d, benchXQ3, DPO, 200)
	})
	b.Run("semijoin-DPO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runDPOSemijoin(d, chain, 200)
		}
	})
}

// BenchmarkAblationBestOnly measures the dominated-extension optimization
// for optional variables: with it disabled, every optional match
// multiplies the tuple stream. (Design-choice ablation; see DESIGN.md.)
func BenchmarkAblationBestOnly(b *testing.B) {
	d := benchDoc(b, 1<<10)
	q := MustParseQuery(benchXQ3)
	chain, err := d.chain(q, Weights{})
	if err != nil {
		b.Fatal(err)
	}
	// A moderate prefix: the unoptimized variant is exponential in the
	// number of optional variables, so the full chain is unrunnable —
	// which is the point of the optimization.
	steps := 10
	if chain.Len() < steps {
		steps = chain.Len()
	}
	plan, err := chain.PlanAt(steps)
	if err != nil {
		b.Fatal(err)
	}
	for _, disabled := range []bool{false, true} {
		name := "bestOnly"
		if disabled {
			name = "materializeAll"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runPlanAblation(d, plan, 200, disabled)
			}
		})
	}
}

// BenchmarkAblationParallel measures join-step fan-out on the encoded
// XQ3 plan.
func BenchmarkAblationParallel(b *testing.B) {
	d := benchDoc(b, 4<<10)
	q := MustParseQuery(benchXQ3)
	opts := SearchOptions{K: 500, Algorithm: Hybrid}
	if _, err := d.Search(q, opts); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := opts
			o.Parallel = workers
			for i := 0; i < b.N; i++ {
				if _, err := d.Search(q, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubstrates measures the building blocks: parsing, indexing,
// statistics collection and chain construction on a 1 MB document.
func BenchmarkSubstrates(b *testing.B) {
	cfg := xmark.Config{TargetBytes: 1 << 20, Seed: 42}
	b.Run("xmark-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xmark.Build(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	tree, err := xmark.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("index+stats", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewDocument(tree)
		}
	})
	d := NewDocument(tree)
	b.Run("chain-build", func(b *testing.B) {
		q := MustParseQuery(benchXQ3)
		for i := 0; i < b.N; i++ {
			// Bypass the cache by varying weights marginally.
			w := Weights{Structural: 1 + float64(i%7)*1e-9, Contains: 1}
			if _, err := d.chain(q, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIRFirstCrossover compares structure-first and IR-first exact
// evaluation (§5.1 leaves this comparison open). IR-first starts from
// inverted-index witnesses and should win when keywords are selective;
// structure-first scans tag lists and should win when keywords are
// common.
func BenchmarkIRFirstCrossover(b *testing.B) {
	d := benchDoc(b, 4<<10)
	cases := []struct{ name, query string }{
		// A phrase (adjacent bigram) is rare on this corpus: few
		// witnesses, so starting from the inverted index pays off.
		{"selective", `//item[./description[.contains("gold silver")]]`},
		// A hot single term has thousands of witnesses: walking their
		// ancestor chains costs more than scanning the tag list.
		{"common", `//item[./description[.contains("xml")]]`},
	}
	for _, c := range cases {
		q := MustParseQuery(c.query)
		b.Run(c.name+"/structure-first", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runEvaluate(d, q, false)
			}
		})
		b.Run(c.name+"/ir-first", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runEvaluate(d, q, true)
			}
		})
	}
}

// benchColdMember saves a 512 KB document as FXP3 and adds it cold to a
// collection capped at one resident member.
func benchColdMember(b *testing.B) (*Collection, *member, string) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "m.fxp3")
	if err := benchDoc(b, 512).SaveFXP3SnapshotFile(path); err != nil {
		b.Fatal(err)
	}
	c := NewCollection()
	b.Cleanup(func() { c.Close() }) //nolint:errcheck
	if err := c.AddSnapshotFile("m", path); err != nil {
		b.Fatal(err)
	}
	_, members := c.snapshot()
	return c, members[0], path
}

// BenchmarkFaultIn times a member's first fault: map, parse the
// directory, checksum and validate every section once, slice the columns.
func BenchmarkFaultIn(b *testing.B) {
	_, _, path := benchColdMember(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCollection()
		if err := c.AddSnapshotFile("m", path); err != nil {
			b.Fatal(err)
		}
		_, members := c.snapshot()
		if _, err := c.require(members[0], nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Close() //nolint:errcheck
		b.StartTimer()
	}
}

// BenchmarkRefault times what coll_cold pays 32 times per search: an
// already checksummed and validated member is evicted and faulted again.
func BenchmarkRefault(b *testing.B) {
	c, m, _ := benchColdMember(b)
	if _, err := c.require(m, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.doc.Store(nil)
		if _, err := c.require(m, nil); err != nil {
			b.Fatal(err)
		}
	}
}
