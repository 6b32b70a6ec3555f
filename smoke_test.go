package flexpath

import (
	"context"
	"testing"

	"flexpath/internal/xmark"
)

// articlesXML is a small document in the shape of the paper's running
// example (Figure 1): articles with sections, algorithms and paragraphs.
const articlesXML = `
<collection>
  <article id="a1">
    <title>streaming evaluation</title>
    <section>
      <title>intro</title>
      <algorithm>stack merge</algorithm>
      <paragraph>we process XML via streaming passes</paragraph>
    </section>
  </article>
  <article id="a2">
    <title>storage</title>
    <section>
      <title>XML streaming layouts</title>
      <algorithm>page split</algorithm>
      <paragraph>disk layout of records</paragraph>
    </section>
  </article>
  <article id="a3">
    <title>joins</title>
    <section>
      <paragraph>structural joins over XML streaming inputs</paragraph>
    </section>
    <appendix>
      <algorithm>twig join</algorithm>
    </appendix>
  </article>
  <article id="a4">
    <title>surveys</title>
    <section>
      <paragraph>a survey of query languages</paragraph>
    </section>
  </article>
</collection>`

// paperQ1 is query Q1 of Figure 1.
const paperQ1 = `//article[./section[./algorithm and ./paragraph[.contains("XML" and "streaming")]]]`

func TestSmokeSearch(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	q, err := ParseQuery(paperQ1)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}

	for _, algo := range []Algorithm{DPO, SSO, Hybrid} {
		answers, err := doc.Search(q, SearchOptions{K: 3, Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(answers) == 0 {
			t.Fatalf("%v: no answers", algo)
		}
		// a1 matches Q1 exactly and must rank first.
		if answers[0].ID != "a1" {
			t.Errorf("%v: top answer = %q, want a1 (answers: %+v)", algo, answers[0].ID, answers)
		}
		if answers[0].Relaxations != 0 {
			t.Errorf("%v: exact answer reported %d relaxations", algo, answers[0].Relaxations)
		}
		// a2 (keywords in the section title, not the paragraph) and a3
		// (algorithm outside the section) should be admitted by
		// relaxations with lower structural scores.
		for _, a := range answers[1:] {
			if a.Structural >= answers[0].Structural {
				t.Errorf("%v: relaxed answer %s has ss %.3f >= exact %.3f",
					algo, a.ID, a.Structural, answers[0].Structural)
			}
		}
	}
}

func TestSmokeRelaxations(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	steps, err := doc.Relaxations(context.Background(), q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("no relaxation steps")
	}
	prev := 1e18
	for _, s := range steps {
		if s.Score > prev+1e-9 {
			t.Errorf("structural score increased at level %d: %.3f -> %.3f", s.Level, prev, s.Score)
		}
		prev = s.Score
		t.Logf("level %d: %-45s penalty=%.3f ss=%.3f", s.Level, s.Description, s.Penalty, s.Score)
	}
}

func TestSmokeXMark(t *testing.T) {
	tree, err := xmark.Build(xmark.Config{TargetBytes: 200 << 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	doc := NewDocument(tree)
	q := MustParseQuery(`//item[./description/parlist and ./mailbox/mail/text]`)
	for _, algo := range []Algorithm{DPO, SSO, Hybrid} {
		var m Metrics
		answers, err := doc.Search(q, SearchOptions{K: 20, Algorithm: algo, Metrics: &m})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(answers) != 20 {
			t.Fatalf("%v: got %d answers, want 20", algo, len(answers))
		}
		t.Logf("%v: metrics=%+v first=%+v", algo, m, answers[0].Path)
	}
}
