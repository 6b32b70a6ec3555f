package flexpath

import (
	"context"
	"errors"
	"math"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"

	"flexpath/internal/xmark"
)

func TestParseQueryErrors(t *testing.T) {
	for _, src := range []string{"", "item", "//item[", "//item[.contains(]"} {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) succeeded", src)
		}
	}
}

func TestMustParseQueryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseQuery did not panic")
		}
	}()
	MustParseQuery("((bad")
}

func TestParseAlgorithmAndScheme(t *testing.T) {
	for _, a := range []Algorithm{DPO, SSO, Hybrid} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("algorithm round trip %v: %v %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("accepted bogus algorithm")
	}
	for _, s := range []Scheme{StructureFirst, KeywordFirst, Combined} {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("scheme round trip %v: %v %v", s, got, err)
		}
	}
	if _, err := ParseScheme("nope"); err == nil {
		t.Error("accepted bogus scheme")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadString("not xml at all"); err == nil {
		t.Error("accepted invalid XML")
	}
	if _, err := LoadAuto("/nonexistent/file.xml"); err == nil {
		t.Error("accepted missing file")
	}
}

func TestSearchDefaults(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	// Zero-value options: K defaults to 10 (capped by available answers).
	answers, err := doc.Search(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers with default options")
	}
	for _, a := range answers {
		if a.Path == "" || a.Tag != "article" {
			t.Errorf("bad answer fields: %+v", a)
		}
	}
}

func TestAnswerAccessors(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := doc.Search(MustParseQuery(paperQ1), SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := answers[0]
	if a.ID != "a1" {
		t.Fatalf("top answer %q", a.ID)
	}
	if s := a.Snippet(20); len(s) == 0 || len(s) > 25 {
		t.Errorf("Snippet(20) = %q", s)
	}
	x := a.XML()
	if !strings.HasPrefix(x, "<article") || !strings.HasSuffix(x, "</article>") {
		t.Errorf("XML() = %.60s...", x)
	}
}

func TestWeightsAffectScores(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	def, err := doc.Search(q, SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := doc.Search(q, SearchOptions{K: 1, Weights: Weights{Structural: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if heavy[0].Structural != 2*def[0].Structural {
		t.Errorf("doubling structural weight: %f -> %f", def[0].Structural, heavy[0].Structural)
	}
}

func TestSchemesChangeOrdering(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	for _, scheme := range []Scheme{StructureFirst, KeywordFirst, Combined} {
		answers, err := doc.Search(q, SearchOptions{K: 3, Scheme: scheme})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(answers) != 3 {
			t.Fatalf("%v: %d answers", scheme, len(answers))
		}
	}
}

func TestRelaxationsListing(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := doc.Relaxations(context.Background(), MustParseQuery(paperQ1), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("no steps")
	}
	for i, s := range steps {
		if s.Level != i+1 {
			t.Errorf("step %d has level %d", i, s.Level)
		}
		if s.Description == "" || s.Query == "" {
			t.Errorf("step %d missing description/query: %+v", i, s)
		}
		if s.Penalty < 0 {
			t.Errorf("step %d negative penalty", i)
		}
	}
}

func TestChainCacheReuse(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	// The first lookup only sights the key; the second keeps its template.
	if _, err := doc.template(q, Weights{}, nil); err != nil {
		t.Fatal(err)
	}
	c1, err := doc.template(q, Weights{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := doc.template(MustParseQuery(paperQ1), Weights{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("equal queries did not share a cached chain")
	}
	c3, err := doc.template(q, Weights{Structural: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c3 {
		t.Error("different weights shared a chain")
	}
}

func TestConcurrentSearches(t *testing.T) {
	tree, err := xmark.Build(xmark.Config{TargetBytes: 64 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	doc := NewDocument(tree)
	queries := []string{
		`//item[./description/parlist]`,
		`//item[./mailbox/mail/text]`,
		`//item[./name and ./incategory]`,
	}
	done := make(chan error, 12)
	for i := 0; i < 12; i++ {
		go func(i int) {
			q := MustParseQuery(queries[i%len(queries)])
			_, err := doc.Search(q, SearchOptions{
				K:         5 + i,
				Algorithm: []Algorithm{DPO, SSO, Hybrid}[i%3],
			})
			done <- err
		}(i)
	}
	for i := 0; i < 12; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestMetricsPopulated(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if _, err := doc.Search(MustParseQuery(paperQ1), SearchOptions{
		K: 3, Algorithm: SSO, Metrics: &m,
	}); err != nil {
		t.Fatal(err)
	}
	if m.PlansRun == 0 {
		t.Errorf("metrics not populated: %+v", m)
	}
}

// TestAnswerSnippetRuneBoundaries is the regression test for the
// structure-only snippet path truncating inside a multi-byte rune: a
// query without full-text terms takes the raw-prefix branch of
// Answer.Snippet, and every budget in the sweep must still yield valid
// UTF-8.
func TestAnswerSnippetRuneBoundaries(t *testing.T) {
	body := strings.Repeat("über naïve café résumé ", 10)
	doc, err := LoadString(`<collection><article id="a1"><section><paragraph>` +
		body + `</paragraph></section></article></collection>`)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := doc.Search(MustParseQuery(`//article[./section/paragraph]`), SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 {
		t.Fatalf("answers = %d, want 1", len(answers))
	}
	for n := 5; n <= 60; n++ {
		s := answers[0].Snippet(n)
		if !utf8.ValidString(s) {
			t.Fatalf("n=%d: snippet is invalid UTF-8: %q", n, s)
		}
	}
}

func TestAnswerRelaxedExplanations(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := doc.Search(MustParseQuery(paperQ1), SearchOptions{K: 3, Algorithm: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range answers {
		if a.Relaxations == 0 && len(a.Relaxed) != 0 {
			t.Errorf("exact answer %s has relaxation explanations %v", a.ID, a.Relaxed)
		}
		if a.Relaxations > 0 && len(a.Relaxed) == 0 {
			t.Errorf("relaxed answer %s (level %d) has no explanations", a.ID, a.Relaxations)
		}
		for _, why := range a.Relaxed {
			if why == "" {
				t.Errorf("empty explanation on %s", a.ID)
			}
		}
	}
}

func TestLoadWithOptionsBM25(t *testing.T) {
	r := strings.NewReader(articlesXML)
	doc, err := LoadWithOptions(r, DocumentOptions{BM25: true})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := doc.Search(MustParseQuery(paperQ1), SearchOptions{K: 3, Scheme: KeywordFirst})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers under BM25")
	}
	for _, a := range answers {
		if a.Keyword < 0 || a.Keyword > float64(1)+1e-9 {
			t.Errorf("BM25 keyword score out of range: %f", a.Keyword)
		}
	}
}

func TestSearchOffsetPagination(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	all, err := doc.Search(q, SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("setup: %d answers", len(all))
	}
	page2, err := doc.Search(q, SearchOptions{K: 2, Offset: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(page2) != 2 || page2[0].ID != all[1].ID || page2[1].ID != all[2].ID {
		t.Errorf("offset page wrong: %v vs all %v", ids(page2), ids(all))
	}
	beyond, err := doc.Search(q, SearchOptions{K: 5, Offset: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(beyond) != 0 {
		t.Errorf("offset beyond results returned %d answers", len(beyond))
	}
}

func ids(as []Answer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.ID
	}
	return out
}

func TestQueryMinimize(t *testing.T) {
	// A query with a redundant branch: .//b is implied by ./b.
	q := MustParseQuery(`//a[./b and .//b]`)
	m, err := q.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if m.Vars() != 2 {
		t.Errorf("minimized query has %d vars, want 2: %s", m.Vars(), m)
	}
	// Already-minimal queries survive unchanged (same canonical form).
	q2 := MustParseQuery(paperQ1)
	m2, err := q2.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Vars() != q2.Vars() {
		t.Errorf("minimal query changed: %s", m2)
	}
}

func TestSnippetCentersOnKeywords(t *testing.T) {
	long := strings.Repeat("filler words here ", 40)
	doc, err := LoadString(`<lib><book id="b"><para>` + long + `golden treasure ` + long + `</para></book></lib>`)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := doc.Search(MustParseQuery(`//book[.contains("golden")]`), SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 {
		t.Fatal("no answer")
	}
	s := answers[0].Snippet(80)
	if !strings.Contains(s, "golden") {
		t.Errorf("snippet not centered on keyword: %q", s)
	}
}

// TestExplainPlan: EXPLAIN marks the variables that only have to exist,
// and under a type hierarchy it lists the subtypes in one order however
// the hierarchy map happens to be iterated.
func TestExplainPlan(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`//article[./section/algorithm]`)
	out, err := doc.ExplainPlan(context.Background(), q, SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"$1 article  [root scan]\n",
		"$2 section  child-of #0 ($1)  [exists: semijoin]\n",
		"$3 algorithm  child-of #1 ($2)  [exists: semijoin]\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainPlan missing %q:\n%s", want, out)
		}
	}
	h := map[string]string{"article": "work", "report": "work", "thesis": "work", "memo": "work"}
	var first string
	for i := 0; i < 50; i++ {
		fresh, err := LoadString(articlesXML)
		if err != nil {
			t.Fatal(err)
		}
		out, err := fresh.ExplainPlan(context.Background(), MustParseQuery(`//work[./section]`), SearchOptions{K: 1, Hierarchy: h})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out
			if !strings.Contains(out, "(or subtypes: article, memo, report, thesis)") {
				t.Fatalf("ExplainPlan does not list the sorted subtypes:\n%s", out)
			}
		} else if out != first {
			t.Fatalf("build %d explains differently:\n%s\nfirst:\n%s", i, out, first)
		}
	}
}

func TestAnalyzePlan(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	out, err := doc.AnalyzePlan(context.Background(), MustParseQuery(paperQ1), SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"relaxations encoded", "tuples-in", "scored", "article", "paragraph"} {
		if !strings.Contains(out, want) {
			t.Errorf("AnalyzePlan output missing %q:\n%s", want, out)
		}
	}
	// The optional algorithm is scored in place for each of the three
	// sections joined, and two of them have one to score: a3's algorithm
	// is in its appendix.
	if !regexp.MustCompile(`\n\$3 algorithm +3 +3 +3 +2 `).MatchString(out) {
		t.Errorf("AnalyzePlan: the algorithm step does not report the candidates it scored:\n%s", out)
	}
	// At K=1 the exact query suffices, and its algorithm only has to
	// exist: the description marks it and the trace has no row for it,
	// while the joined steps report their semijoin-reduced candidates:
	// three articles contain the keywords, one has a section with an
	// algorithm and a matching paragraph.
	out, err = doc.AnalyzePlan(context.Background(), MustParseQuery(paperQ1), SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "$3 algorithm  child-of #1 ($2)  [exists: semijoin]") {
		t.Errorf("AnalyzePlan does not mark the existential algorithm:\n%s", out)
	}
	if strings.Contains(out, "\n$3 algorithm ") {
		t.Errorf("AnalyzePlan traces a step Run skips:\n%s", out)
	}
	if !regexp.MustCompile(`\n\$1 article +1 +1 +1 `).MatchString(out) {
		t.Errorf("AnalyzePlan: article step does not report the reduced candidate list:\n%s", out)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := doc.AnalyzePlan(ctx, MustParseQuery(paperQ1), SearchOptions{K: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled AnalyzePlan: err = %v, want context.Canceled", err)
	}
}

// TestDocumentSearchAllocs pins the allocations of a Document search on
// the paper's path: a warm plan template, the result cache bypassed, each
// algorithm at a small and a large K. The pins are measured counts: a
// change may lower them, never raise them. Going through the collection
// path must cost a lone document nothing.
func TestDocumentSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	doc := xmarkDoc(t, 512, 3)
	q := MustParseQuery(`//item[./description/parlist and ./mailbox/mail/text]`)
	for _, c := range []struct {
		algo Algorithm
		k    int
		pin  float64
	}{
		{DPO, 10, 28}, {SSO, 10, 19}, {Hybrid, 10, 19},
		{DPO, 700, 386}, {SSO, 700, 656}, {Hybrid, 700, 656},
	} {
		opts := SearchOptions{K: c.k, Algorithm: c.algo, NoCache: true}
		if _, err := doc.Search(q, opts); err != nil { // warms the template
			t.Fatal(err)
		}
		// The least of three rounds: a garbage collection emptying the arena pool
		// mid-round adds allocations that are not the search's.
		n := math.Inf(1)
		for round := 0; round < 3; round++ {
			n = min(n, testing.AllocsPerRun(10, func() {
				if _, err := doc.Search(q, opts); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("%v K=%d: %v allocations per search", c.algo, c.k, n)
		if n > c.pin {
			t.Errorf("%v K=%d: %v allocations per search, pinned at %v", c.algo, c.k, n, c.pin)
		}
	}
}
