// Auction: top-K search over an XMark-style auction document, comparing
// the three evaluation algorithms (DPO, SSO, Hybrid) on the paper's
// experiment workload.
//
// Run with: go run ./examples/auction [-mb 2] [-k 100]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"flexpath"
	"flexpath/internal/xmark"
)

func main() {
	mb := flag.Float64("mb", 2, "document size in MiB")
	k := flag.Int("k", 100, "top-K")
	seed := flag.Int64("seed", 42, "generator seed")
	flag.Parse()

	fmt.Printf("generating %.1f MiB auction document (seed %d)...\n", *mb, *seed)
	tree, err := xmark.Build(xmark.Config{
		TargetBytes: int64(*mb * float64(1<<20)),
		Seed:        *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	doc := flexpath.NewDocument(tree)
	fmt.Printf("indexed %d elements in %v\n\n", doc.Nodes(), time.Since(start).Round(time.Millisecond))

	// XQ3 of the paper's experiments: a six-relaxation query.
	q, err := flexpath.ParseQuery(`//item[./description/parlist/listitem and ` +
		`./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %s\nk = %d\n\n", q, *k)

	var baseline []flexpath.Answer
	for _, algo := range []flexpath.Algorithm{flexpath.DPO, flexpath.SSO, flexpath.Hybrid} {
		var m flexpath.Metrics
		t0 := time.Now()
		answers, err := doc.Search(q, flexpath.SearchOptions{
			K: *k, Algorithm: algo, Metrics: &m,
		})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(t0)
		fmt.Printf("%-7s %8v  answers=%d  queries=%d plans=%d relaxations=%d tuples=%d pruned=%d sorted=%d buckets=%d\n",
			algo, elapsed.Round(time.Microsecond), len(answers),
			m.QueriesEvaluated, m.PlansRun, m.RelaxationsEncoded,
			m.TuplesGenerated, m.TuplesPruned, m.SortedTuples, m.Buckets)
		if baseline == nil {
			baseline = answers
		}
	}

	fmt.Println("\ntop answers:")
	for i, a := range baseline {
		if i >= 5 {
			fmt.Printf("... and %d more\n", len(baseline)-5)
			break
		}
		fmt.Printf("%d. %s (%s) structural=%.3f keyword=%.3f relaxations=%d\n",
			i+1, a.ID, a.Path, a.Structural, a.Keyword, a.Relaxations)
	}

	fmt.Println("\nrelaxation chain for this query on this document:")
	steps, err := doc.Relaxations(context.Background(), q, flexpath.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range steps {
		fmt.Printf("%2d. %-45s penalty=%.4f score=%.4f\n", s.Level, s.Description, s.Penalty, s.Score)
	}
}
