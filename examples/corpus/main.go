// Corpus: searching a multi-document collection, with snapshots and the
// §3.4 extension relaxations (type hierarchies).
//
// The program builds two synthetic corpora — an INEX-style article
// collection and an XMark-style auction document — searches them together
// as one collection, demonstrates FXP3 snapshots, and shows
// hierarchy-widened matching.
//
// Run with: go run ./examples/corpus
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"flexpath"
	"flexpath/internal/inex"
	"flexpath/internal/xmark"
)

func main() {
	articles, err := inex.Build(inex.Config{Articles: 400, Seed: 11})
	dieIf(err)
	auction, err := xmark.Build(xmark.Config{TargetBytes: 512 << 10, Seed: 11})
	dieIf(err)

	coll := flexpath.NewCollection()
	dieIf(coll.Add("articles.xml", flexpath.NewDocument(articles)))
	dieIf(coll.Add("auction.xml", flexpath.NewDocument(auction)))
	fmt.Printf("collection: %d documents, %d elements\n\n", coll.Len(), coll.Nodes())

	// A structural+full-text query that only the article corpus matches
	// exactly; relaxed matches may surface from either document.
	q, err := flexpath.ParseQuery(
		`//article[./section[./algorithm and ./paragraph[.contains("xml" and "streaming")]]]`)
	dieIf(err)

	answers, err := coll.Search(q, flexpath.SearchOptions{K: 8})
	dieIf(err)
	fmt.Println("=== top answers across the collection ===")
	for i, a := range answers {
		fmt.Printf("%d. [%s] %-28s ss=%.2f ks=%.2f relax=%d\n",
			i+1, a.DocName, a.ID, a.Structural, a.Keyword, a.Relaxations)
	}

	// Snapshots: persist the article corpus with its indexes and map it
	// back without re-parsing XML or rebuilding anything.
	dir, err := os.MkdirTemp("", "flexpath")
	dieIf(err)
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "articles.fxp3")
	artDoc, _ := coll.Document("articles.xml")
	dieIf(artDoc.SaveFXP3SnapshotFile(snap))
	start := time.Now()
	restored, err := flexpath.LoadFXP3SnapshotFile(snap)
	dieIf(err)
	defer restored.Close()
	fmt.Printf("\nsnapshot reload: %d elements in %v\n", restored.Nodes(), time.Since(start).Round(time.Microsecond))

	// Hierarchy extension (§3.4): treat subsection as a subtype of
	// section, so queries about sections also see subsections.
	fmt.Println("\n=== type-hierarchy widening (subsection <: section) ===")
	hq, err := flexpath.ParseQuery(`//article[./section/section/paragraph]`)
	dieIf(err)
	for _, h := range []map[string]string{nil, {"subsection": "section"}} {
		res, err := restored.Search(hq, flexpath.SearchOptions{K: 50, Hierarchy: h})
		dieIf(err)
		exact := 0
		for _, a := range res {
			if a.Relaxations == 0 {
				exact++
			}
		}
		label := "without hierarchy"
		if h != nil {
			label = "with hierarchy   "
		}
		fmt.Printf("%s: %d exact matches of //article[./section/section/paragraph]\n", label, exact)
	}

	// Show the plan the optimizer would run, for the curious.
	fmt.Println("\n=== evaluation plan for the main query ===")
	plan, err := restored.ExplainPlan(q, flexpath.SearchOptions{K: 8})
	dieIf(err)
	fmt.Print(plan)
}

func dieIf(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
