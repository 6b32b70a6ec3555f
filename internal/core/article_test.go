package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"flexpath/internal/exec"
	"flexpath/internal/rank"
	"flexpath/internal/xmltree"
)

// articleQuery is the costliest shape of the serve_mixed query pool, with
// its full-text expression filled in.
const articleQuery = `//article[./section/section/paragraph and ./abstract and .contains("oak" or "marble")]`

// articleWords is the vocabulary of generated article text.
var articleWords = []string{
	"xml", "streaming", "algorithm", "query", "relaxation", "oak", "marble",
	"walnut", "brass", "copper", "velvet", "crystal", "granite", "silk",
}

// articleFixture generates one article per size in sizes (bytes of XML
// each), under a collection root, in the shape of the serve_mixed
// workload's members: title, authors, abstract, sections of 2-6
// paragraphs (some naming an algorithm, some with a figure) nested up to
// three deep, and references.
func articleFixture(t testing.TB, seed int64, sizes ...int) *fixture {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	words := func(n int) {
		for i := range n {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(articleWords[r.Intn(len(articleWords))])
		}
	}
	element := func(tag string, n int) {
		b.WriteString("<" + tag + ">")
		words(n)
		b.WriteString("</" + tag + ">")
	}
	var section func(depth int)
	section = func(depth int) {
		b.WriteString("<section>")
		element("title", 2+r.Intn(4))
		for range 2 + r.Intn(5) {
			b.WriteString("<paragraph>")
			words(40 + r.Intn(80))
			if r.Intn(4) == 0 {
				b.WriteByte(' ')
				element("algorithm", 1+r.Intn(2))
			}
			b.WriteString("</paragraph>")
		}
		if r.Intn(10) < 3 {
			b.WriteString("<figure>")
			element("caption", 5+r.Intn(10))
			b.WriteString("</figure>")
		}
		if depth < 2 && r.Intn(20) < 7 {
			section(depth + 1)
		}
		b.WriteString("</section>")
	}
	b.WriteString("<collection>")
	for i, size := range sizes {
		start := b.Len()
		fmt.Fprintf(&b, `<article id="a%d">`, i)
		element("title", 3+r.Intn(5))
		for range 1 + r.Intn(3) {
			element("author", 2)
		}
		element("abstract", 40+r.Intn(40))
		for b.Len()-start < size {
			section(0)
		}
		b.WriteString("<references>")
		for range 5 + r.Intn(15) {
			element("ref", 6+r.Intn(8))
		}
		b.WriteString("</references></article>")
	}
	b.WriteString("</collection>")
	doc, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return fixtureFor(doc)
}

// TestArticlePlanScoredBounded: a variable scored in place visits only
// the candidates a bound bonus partner can tell apart, and the first
// other one. serve_mixed's costliest query shape, fully relaxed as Hybrid
// runs it when K exceeds the articles, over generated articles of 32, 64
// and 128 KB, scored 614 163 candidates at K = 10 when every paragraph of
// an article was scored for every (section, section) binding; the pin is
// the count measured with the region rule. Hybrid's ranking must equal
// the brute-force nested loop's, which scores every candidate, bit for
// bit.
func TestArticlePlanScoredBounded(t *testing.T) {
	f := articleFixture(t, 1, 32<<10, 64<<10, 128<<10)
	c := f.chain(t, articleQuery)
	plan, err := c.PlanAt(c.Len())
	if err != nil {
		t.Fatal(err)
	}
	var st exec.PipelineStats
	got := exec.Run(plan, exec.Options{K: 10, Mode: exec.ModeBuckets, Stats: &st})
	want, ok := nestedLoop(plan, rank.StructureFirst, 1_000_000)
	if !ok {
		t.Fatal("the plan is too large for the nested loop")
	}
	if len(got) != 3 {
		t.Fatalf("%d answers, want the 3 articles", len(got))
	}
	if d := diffAnswers(got, want); d != "" {
		t.Fatal(d)
	}
	t.Logf("%d candidates scored", st.Scored)
	if st.Scored > 45_262 {
		t.Errorf("scored %d candidates, pinned at 45 262", st.Scored)
	}
}
