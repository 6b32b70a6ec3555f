// Articles: the paper's running example (Figure 1 / §1), executable.
//
// The program builds a small INEX/SIGMOD-Record-style article collection,
// runs the paper's query Q1 under strict semantics and under FleXPath's
// flexible semantics, and then evaluates the whole Q1..Q6 ladder to show
// how each hand-written relaxation corresponds to answers FleXPath finds
// automatically.
//
// Run with: go run ./examples/articles
package main

import (
	"context"
	"fmt"
	"log"

	"flexpath"
)

// collection mirrors the situations discussed in the paper's
// introduction:
//
//	a1 — matches Q1 exactly (algorithm and keyword paragraph in the same
//	     section);
//	a2 — keywords in the section title, not a paragraph (caught by Q2);
//	a3 — all algorithms outside the keyword section (caught by Q3);
//	a4 — keywords only at the article level (caught by Q6);
//	a5 — irrelevant.
const collection = `
<inex>
  <article id="a1">
    <title>Evaluating XPath on streams</title>
    <section>
      <title>Evaluation</title>
      <algorithm>stack-merge</algorithm>
      <paragraph>Our algorithm evaluates XML streaming workloads in one pass.</paragraph>
    </section>
  </article>
  <article id="a2">
    <title>Storage engines</title>
    <section>
      <title>Layouts for XML streaming</title>
      <algorithm>page-split</algorithm>
      <paragraph>We describe page layouts for persistent trees.</paragraph>
    </section>
  </article>
  <article id="a3">
    <title>Join processing</title>
    <section>
      <title>Twig joins</title>
      <paragraph>Structural joins handle XML streaming input lists.</paragraph>
    </section>
    <appendix>
      <algorithm>twig-stack</algorithm>
    </appendix>
  </article>
  <article id="a4">
    <title>A survey of XML streaming systems</title>
    <section>
      <title>Scope</title>
      <paragraph>We classify published systems by their cost model.</paragraph>
    </section>
  </article>
  <article id="a5">
    <title>Relational optimizers</title>
    <section>
      <title>Cost models</title>
      <paragraph>Cardinality estimation for SQL plans.</paragraph>
    </section>
  </article>
</inex>`

// ladder is the Q1..Q6 ladder of Figure 1.
var ladder = []struct{ name, src string }{
	{"Q1", `//article[./section[./algorithm and ./paragraph[.contains("XML" and "streaming")]]]`},
	{"Q2", `//article[./section[./algorithm and ./paragraph and .contains("XML" and "streaming")]]`},
	{"Q3", `//article[.//algorithm and ./section[./paragraph[.contains("XML" and "streaming")]]]`},
	{"Q4", `//article[.//algorithm and ./section[./paragraph and .contains("XML" and "streaming")]]`},
	{"Q5", `//article[./section[./paragraph and .contains("XML" and "streaming")]]`},
	{"Q6", `//article[.contains("XML" and "streaming")]`},
}

func main() {
	doc, err := flexpath.LoadString(collection)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== The hand-written ladder (what a user would have to do) ===")
	for _, q := range ladder {
		query, err := flexpath.ParseQuery(q.src)
		if err != nil {
			log.Fatal(err)
		}
		// K=1 with zero relaxations means "strict": abuse Search with a
		// large K and keep only exact (0-relaxation) answers.
		answers, err := doc.Search(query, flexpath.SearchOptions{K: 10})
		if err != nil {
			log.Fatal(err)
		}
		var exact []string
		for _, a := range answers {
			if a.Relaxations == 0 {
				exact = append(exact, a.ID)
			}
		}
		fmt.Printf("%s -> %v\n", q.name, exact)
	}

	fmt.Println("\n=== One FleXPath query instead (top-4, structure-first) ===")
	q1, err := flexpath.ParseQuery(ladder[0].src)
	if err != nil {
		log.Fatal(err)
	}
	answers, err := doc.Search(q1, flexpath.SearchOptions{K: 4})
	if err != nil {
		log.Fatal(err)
	}
	for i, a := range answers {
		fmt.Printf("%d. %-3s structural=%.3f keyword=%.3f relaxations=%d\n",
			i+1, a.ID, a.Structural, a.Keyword, a.Relaxations)
	}

	fmt.Println("\n=== The relaxations FleXPath applied, cheapest first ===")
	steps, err := doc.Relaxations(context.Background(), q1, flexpath.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range steps {
		fmt.Printf("%2d. %-45s penalty=%.3f\n", s.Level, s.Description, s.Penalty)
	}

	fmt.Println("\n=== Ranking schemes compared (top answer under each) ===")
	for _, scheme := range []flexpath.Scheme{
		flexpath.StructureFirst, flexpath.KeywordFirst, flexpath.Combined,
	} {
		answers, err := doc.Search(q1, flexpath.SearchOptions{K: 4, Scheme: scheme})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s:", scheme)
		for _, a := range answers {
			fmt.Printf(" %s(ss=%.2f,ks=%.2f)", a.ID, a.Structural, a.Keyword)
		}
		fmt.Println()
	}
}
