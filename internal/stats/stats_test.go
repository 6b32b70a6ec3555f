package stats

import (
	"math/rand"
	"testing"

	"flexpath/internal/ir"
	"flexpath/internal/tpq"
	"flexpath/internal/xmark"
	"flexpath/internal/xmltree"
)

const sampleXML = `<site>
  <regions>
    <africa>
      <item><name>gold</name><description><parlist><listitem>x</listitem></parlist></description></item>
      <item><name>silver</name><description>plain</description></item>
    </africa>
    <asia>
      <item><description><parlist><listitem><parlist><listitem>y</listitem></parlist></listitem></parlist></description></item>
    </asia>
  </regions>
</site>`

func TestCounts(t *testing.T) {
	doc, err := xmltree.ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	s := Collect(doc)
	if got := s.Count("item"); got != 3 {
		t.Errorf("#(item) = %d, want 3", got)
	}
	if got := s.Count("parlist"); got != 3 {
		t.Errorf("#(parlist) = %d, want 3", got)
	}
	if got := s.Count("nosuch"); got != 0 {
		t.Errorf("#(nosuch) = %d", got)
	}
	if got := s.PC("description", "parlist"); got != 2 {
		t.Errorf("#pc(description,parlist) = %d, want 2", got)
	}
	if got := s.AD("description", "parlist"); got != 3 {
		t.Errorf("#ad(description,parlist) = %d, want 3", got)
	}
	if got := s.PC("item", "name"); got != 2 {
		t.Errorf("#pc(item,name) = %d, want 2", got)
	}
	if got := s.AD("site", "item"); got != 3 {
		t.Errorf("#ad(site,item) = %d, want 3", got)
	}
	if got := s.PC("site", "item"); got != 0 {
		t.Errorf("#pc(site,item) = %d, want 0", got)
	}
}

// randomTags are the tags randomDoc draws from.
var randomTags = []string{"a", "b", "c"}

// randomDoc draws a document of up to six levels over randomTags.
func randomDoc(r *rand.Rand) *xmltree.Document {
	b := xmltree.NewBuilder()
	var build func(depth int)
	build = func(depth int) {
		b.Open(randomTags[r.Intn(len(randomTags))])
		if depth < 5 {
			for i := 0; i < r.Intn(3); i++ {
				build(depth + 1)
			}
		}
		b.Close()
	}
	build(0)
	d, err := b.Document()
	if err != nil {
		panic(err)
	}
	return d
}

// TestPropertyCountsMatchNaive compares the collected statistics against a
// brute-force recount on random documents.
func TestPropertyCountsMatchNaive(t *testing.T) {
	for seed := int64(1); seed <= 60 && !t.Failed(); seed++ {
		countsMatchNaive(t, seed)
	}
}

func FuzzPropertyCountsMatchNaive(f *testing.F) { f.Fuzz(countsMatchNaive) }

// countsMatchNaive recounts the statistics of a random document drawn
// from seed by brute force.
func countsMatchNaive(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	d := randomDoc(r)
	s := Collect(d)
	for _, t1 := range randomTags {
		nt := 0
		for n := xmltree.NodeID(0); int(n) < d.Len(); n++ {
			if d.TagName(n) == t1 {
				nt++
			}
		}
		if s.Count(t1) != nt {
			t.Fatalf("seed %d: Count(%s) = %d, want %d", seed, t1, s.Count(t1), nt)
		}
		for _, t2 := range randomTags {
			pc, ad := 0, 0
			for n := xmltree.NodeID(0); int(n) < d.Len(); n++ {
				if d.TagName(n) != t2 {
					continue
				}
				if p := d.Parent(n); p != xmltree.InvalidNode && d.TagName(p) == t1 {
					pc++
				}
				for a := d.Parent(n); a != xmltree.InvalidNode; a = d.Parent(a) {
					if d.TagName(a) == t1 {
						ad++
					}
				}
			}
			if s.PC(t1, t2) != pc || s.AD(t1, t2) != ad {
				t.Fatalf("seed %d: PC, AD(%s, %s) = %d, %d, want %d, %d", seed, t1, t2, s.PC(t1, t2), s.AD(t1, t2), pc, ad)
			}
		}
	}
}

func TestEstimatorSinglePath(t *testing.T) {
	doc, err := xmark.Build(xmark.Config{TargetBytes: 256 << 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	s := Collect(doc)
	ix := ir.NewIndex(doc)
	est := NewEstimator(s, ix)

	// Estimate vs truth for a simple existential pattern: the estimator
	// should be within a factor of ~2 for XMark-shaped data (the paper's
	// uniform-distribution technique "worked well for our dataset").
	q := tpq.MustParse(`//item[./description/parlist]`)
	got := est.Estimate(q, nil)
	truth := 0
	for _, it := range doc.NodesWithTag("item") {
		found := false
		for _, d := range doc.Children(it) {
			if doc.TagName(d) != "description" {
				continue
			}
			for _, p := range doc.Children(d) {
				if doc.TagName(p) == "parlist" {
					found = true
				}
			}
		}
		if found {
			truth++
		}
	}
	if truth == 0 {
		t.Fatal("no true matches; generator broken?")
	}
	ratio := got / float64(truth)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("estimate %f vs truth %d (ratio %.2f) outside [0.5, 2.0]", got, truth, ratio)
	}
}

func TestEstimatorMonotoneUnderRelaxation(t *testing.T) {
	doc, err := xmark.Build(xmark.Config{TargetBytes: 128 << 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(Collect(doc), ir.NewIndex(doc))
	strict := tpq.MustParse(`//item[./description/parlist]`)
	relaxed := tpq.MustParse(`//item[./description//parlist]`)
	dropped := tpq.MustParse(`//item[./description]`)
	a, b, c := est.Estimate(strict, nil), est.Estimate(relaxed, nil), est.Estimate(dropped, nil)
	if !(a <= b+1e-9 && b <= c+1e-9) {
		t.Errorf("estimates not monotone under relaxation: %f, %f, %f", a, b, c)
	}
}

func TestEstimatorMissingTag(t *testing.T) {
	doc, err := xmltree.ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(Collect(doc), ir.NewIndex(doc))
	if got := est.Estimate(tpq.MustParse(`//nosuch[./item]`), nil); got != 0 {
		t.Errorf("estimate for missing tag = %f", got)
	}
	if got := est.Estimate(tpq.MustParse(`//item[./nosuch]`), nil); got != 0 {
		t.Errorf("estimate for missing child = %f", got)
	}
}

func TestEstimatorContains(t *testing.T) {
	doc, err := xmltree.ParseString(`<r>
	  <a><t>gold</t></a><a><t>gold</t></a><a><t>lead</t></a><a><t>lead</t></a>
	</r>`)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(Collect(doc), ir.NewIndex(doc))
	all := est.Estimate(tpq.MustParse(`//a[./t]`), nil)
	some := est.Estimate(tpq.MustParse(`//a[./t and .contains("gold")]`), nil)
	if all != 4 {
		t.Errorf("baseline estimate = %f, want 4", all)
	}
	if some != 2 {
		t.Errorf("contains estimate = %f, want 2 (half the a's contain gold)", some)
	}
}

// TestEstimatorAccuracyAcrossChainLevels guards the estimator against
// regressions: on XMark-shaped data it must stay within a factor of 2 of
// the truth for the paper's workload queries and their relaxations (the
// paper's own estimator "gave precise estimations" and never forced an
// SSO restart).
func TestEstimatorAccuracyAcrossChainLevels(t *testing.T) {
	doc, err := xmark.Build(xmark.Config{TargetBytes: 512 << 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ix := ir.NewIndex(doc)
	est := NewEstimator(Collect(doc), ix)
	queries := []string{
		`//item[./description/parlist]`,
		`//item[./description//parlist]`,
		`//item[./description/parlist and ./mailbox/mail/text]`,
		`//item[./mailbox//text]`,
		`//item[./name and ./incategory]`,
	}
	for _, src := range queries {
		q := tpq.MustParse(src)
		got := est.Estimate(q, nil)
		truth := naiveCount(doc, q)
		if truth == 0 {
			t.Fatalf("%s: no true matches; recalibrate the test", src)
		}
		ratio := got / float64(truth)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: estimate %.1f vs truth %d (ratio %.2f)", src, got, truth, ratio)
		}
	}
}

// naiveCount counts exact matches of the distinguished node by brute
// force (queries here have no contains or value predicates beyond tags).
func naiveCount(doc *xmltree.Document, q *tpq.Query) int {
	var matches func(qi int, n xmltree.NodeID) bool
	matches = func(qi int, n xmltree.NodeID) bool {
		if doc.TagName(n) != q.Nodes[qi].Tag {
			return false
		}
		for ci := range q.Nodes {
			if q.Nodes[ci].Parent != qi {
				continue
			}
			found := false
			for m := n + 1; m <= doc.End(n); m++ {
				if q.Nodes[ci].Axis == tpq.Child && doc.Parent(m) != n {
					continue
				}
				if matches(ci, m) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	count := 0
	for _, n := range doc.NodesWithTag(q.Nodes[0].Tag) {
		if matches(0, n) {
			count++
		}
	}
	return count
}
