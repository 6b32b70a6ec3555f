// Quickstart: load a small document, run one flexible query, print the
// ranked answers.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"flexpath"
)

const library = `
<library>
  <book id="b1">
    <title>Streaming XML Processing</title>
    <chapter>
      <section>
        <para>We study streaming evaluation of XML queries using stacks.</para>
      </section>
    </chapter>
  </book>
  <book id="b2">
    <title>Query Engines</title>
    <chapter>
      <abstract>An overview of XML streaming engines and their costs.</abstract>
      <section>
        <para>Relational engines evaluate joins over tables.</para>
      </section>
    </chapter>
  </book>
  <book id="b3">
    <title>Databases</title>
    <chapter>
      <section>
        <para>Classic transaction processing.</para>
      </section>
    </chapter>
    <appendix>
      <para>A short note on XML streaming APIs.</para>
    </appendix>
  </book>
</library>`

func main() {
	doc, err := flexpath.LoadString(library)
	if err != nil {
		log.Fatal(err)
	}

	// Ask for books whose chapter has a section with a paragraph about
	// "XML streaming". Only b1 matches exactly; FleXPath relaxes the
	// structure to also return b2 (keywords in the abstract, not a
	// paragraph) and b3 (paragraph in an appendix, not a chapter) with
	// lower structural scores.
	q, err := flexpath.ParseQuery(
		`//book[./chapter/section/para[.contains("XML" and "streaming")]]`)
	if err != nil {
		log.Fatal(err)
	}

	answers, err := doc.Search(q, flexpath.SearchOptions{K: 5})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query: %s\n\n", q)
	for i, a := range answers {
		fmt.Printf("%d. %s (id=%s)\n   structural=%.3f keyword=%.3f relaxations=%d\n   %s\n",
			i+1, a.Path, a.ID, a.Structural, a.Keyword, a.Relaxations, a.Snippet(70))
	}

	// Show how the engine would relax the query, cheapest first.
	fmt.Println("\nrelaxation chain:")
	steps, err := doc.Relaxations(context.Background(), q, flexpath.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range steps {
		fmt.Printf("  %2d. %-45s penalty=%.3f score=%.3f\n",
			s.Level, s.Description, s.Penalty, s.Score)
	}
}
