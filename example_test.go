package flexpath_test

import (
	"context"
	"fmt"
	"log"

	"flexpath"
)

const exampleXML = `
<library>
  <book id="exact">
    <chapter><section><para>streaming xml pipelines</para></section></chapter>
  </book>
  <book id="promoted">
    <chapter><abstract>xml streaming overview</abstract><section><para>other</para></section></chapter>
  </book>
  <book id="keyword-only">
    <title>xml streaming</title>
    <chapter><section><para>unrelated</para></section></chapter>
  </book>
</library>`

// Example demonstrates a flexible search: one book matches the structure
// exactly; the others are admitted by relaxations with lower structural
// scores.
func Example() {
	doc, err := flexpath.LoadString(exampleXML)
	if err != nil {
		log.Fatal(err)
	}
	q, err := flexpath.ParseQuery(
		`//book[./chapter/section/para[.contains("xml" and "streaming")]]`)
	if err != nil {
		log.Fatal(err)
	}
	answers, err := doc.Search(q, flexpath.SearchOptions{K: 3})
	if err != nil {
		log.Fatal(err)
	}
	for i, a := range answers {
		fmt.Printf("%d. %s (relaxations: %d)\n", i+1, a.ID, a.Relaxations)
	}
	// Output:
	// 1. exact (relaxations: 0)
	// 2. promoted (relaxations: 2)
	// 3. keyword-only (relaxations: 3)
}

// ExampleDocument_Relaxations lists the relaxation chain of a query: the
// cheapest structural concessions first.
func ExampleDocument_Relaxations() {
	doc, err := flexpath.LoadString(exampleXML)
	if err != nil {
		log.Fatal(err)
	}
	q, err := flexpath.ParseQuery(`//book[./chapter/para[.contains("xml")]]`)
	if err != nil {
		log.Fatal(err)
	}
	steps, err := doc.Relaxations(context.Background(), q, flexpath.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range steps[:3] {
		fmt.Printf("%d. %s\n", s.Level, s.Description)
	}
	// Output:
	// 1. generalize edge chapter/para
	// 2. promote para above chapter
	// 3. delete para
}

// ExampleCollection_Search merges rankings across documents.
func ExampleCollection_Search() {
	a, err := flexpath.LoadString(`<j><book id="j1"><chapter><section><para>xml streaming</para></section></chapter></book></j>`)
	if err != nil {
		log.Fatal(err)
	}
	b, err := flexpath.LoadString(`<p><book id="p1"><title>xml streaming</title><chapter><section><para>x</para></section></chapter></book></p>`)
	if err != nil {
		log.Fatal(err)
	}
	coll := flexpath.NewCollection()
	if err := coll.Add("journal.xml", a); err != nil {
		log.Fatal(err)
	}
	if err := coll.Add("proceedings.xml", b); err != nil {
		log.Fatal(err)
	}
	q, err := flexpath.ParseQuery(`//book[./chapter/section/para[.contains("xml" and "streaming")]]`)
	if err != nil {
		log.Fatal(err)
	}
	answers, err := coll.Search(q, flexpath.SearchOptions{K: 2})
	if err != nil {
		log.Fatal(err)
	}
	for _, ans := range answers {
		fmt.Printf("%s from %s\n", ans.ID, ans.DocName)
	}
	// Output:
	// j1 from journal.xml
	// p1 from proceedings.xml
}
