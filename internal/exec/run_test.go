package exec

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flexpath/internal/ir"
	"flexpath/internal/rank"
	"flexpath/internal/xmltree"
)

// bookDoc is 120 books of one chapter each. The chapter of book i holds a
// "gold" para unless i is a multiple of 3, and a "silver" note when i is
// even.
func bookDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<lib>")
	for i := 0; i < 120; i++ {
		sb.WriteString("<book><chapter>")
		if i%3 != 0 {
			sb.WriteString("<para>gold text here</para>")
		}
		if i%2 == 0 {
			sb.WriteString("<note>silver margin</note>")
		}
		sb.WriteString("</chapter></book>")
	}
	sb.WriteString("</lib>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// buildOptionalPlan assembles a small plan with optional variables and
// bonuses directly (avoiding an import cycle with internal/core).
func buildOptionalPlan(t *testing.T) *Plan {
	t.Helper()
	doc := bookDoc(t)
	ix := ir.NewIndex(doc)
	plan := &Plan{
		Doc: doc,
		Vars: []VarSpec{
			{VarID: 1, Tag: "book", Rel: RelRoot},
			{VarID: 2, Tag: "chapter", Rel: RelParent, Anchor: 0},
			{VarID: 3, Tag: "para", Rel: RelOptional, Anchor: 1,
				Bonus:    []BonusPred{{Other: 1, OtherIsAncestor: true, Parent: true, Penalty: 0.5, Bit: 0}},
				Contains: []ContainsSpec{{Res: ix.Eval(ir.MustParseExpr("gold")), Penalty: 0.25, Bit: 1}},
			},
			{VarID: 4, Tag: "note", Rel: RelOptional, Anchor: 1,
				Bonus: []BonusPred{{Other: 1, OtherIsAncestor: true, Parent: true, Penalty: 0.5, Bit: 2}},
			},
		},
		DistVar:        0,
		Base:           3,
		DroppedPenalty: 1.25,
		NumBits:        3,
		FirstOptional:  2,
	}
	return plan
}

// TestRunScores: an exhaustive run scores every book by the optional
// predicates it satisfies, from the full base down to the floor.
func TestRunScores(t *testing.T) {
	answers := Run(buildOptionalPlan(t), Options{})
	if len(answers) != 120 {
		t.Fatalf("answers = %d, want 120 books", len(answers))
	}
	// Books with both para(gold) and note regain everything.
	if answers[0].Score.SS != 3 {
		t.Errorf("top score %f, want full base 3", answers[0].Score.SS)
	}
	// Books with neither stay at the floor.
	last := answers[len(answers)-1]
	if last.Score.SS != 3-1.25 {
		t.Errorf("bottom score %f, want %f", last.Score.SS, 3-1.25)
	}
}

// TestRunSkipsExistential: the semijoin reduction narrows each required
// anchor to the nodes with a match below it, and a required variable that
// only has to exist is never joined and keeps no list. A check or a
// contains predicate anywhere in a subtree keeps the whole anchor chain
// above it joined.
func TestRunSkipsExistential(t *testing.T) {
	doc := bookDoc(t)
	gold := ir.NewIndex(doc).Eval(ir.MustParseExpr("gold"))
	book := VarSpec{VarID: 1, Tag: "book", Rel: RelRoot}
	chapter := VarSpec{VarID: 2, Tag: "chapter", Rel: RelParent, Anchor: 0}
	para := VarSpec{VarID: 3, Tag: "para", Rel: RelParent, Anchor: 1}
	goldPara := para
	goldPara.Contains = []ContainsSpec{{Res: gold, Required: true, Weight: 1}}
	// A note that must be a child of the bound chapter, scoped only by the
	// book: the check refers to the chapter.
	note := VarSpec{VarID: 4, Tag: "note", Rel: RelAncestor, Anchor: 0,
		Checks: []StructCheck{{Other: 1, Parent: true}}}
	for _, c := range []struct {
		name    string
		vars    []VarSpec
		answers int
		steps   []string // joined steps, in order
		cands   []int    // their reduced candidate counts
	}{
		{"existential chain", []VarSpec{book, chapter, para}, 80,
			[]string{"$1 book"}, []int{80}},
		{"contains keeps the chain", []VarSpec{book, chapter, goldPara}, 80,
			[]string{"$1 book", "$2 chapter", "$3 para"}, []int{80, 80, 80}},
		{"check keeps its target", []VarSpec{book, chapter, para, note}, 40,
			[]string{"$1 book", "$2 chapter", "$4 note"}, []int{40, 80, 60}},
	} {
		plan := &Plan{Doc: doc, Vars: c.vars, Base: 2, FirstOptional: len(c.vars)}
		var trace []StepTrace
		if got := len(Run(plan, Options{Trace: &trace})); got != c.answers {
			t.Errorf("%s: %d answers, want %d", c.name, got, c.answers)
		}
		var steps []string
		var cands []int
		for _, st := range trace {
			steps = append(steps, st.Var)
			cands = append(cands, st.Candidates)
		}
		if !slices.Equal(steps, c.steps) || !slices.Equal(cands, c.cands) {
			t.Errorf("%s: joined %v with candidates %v, want %v with %v", c.name, steps, cands, c.steps, c.cands)
		}
		joined := map[string]bool{}
		for _, s := range steps {
			joined[s] = true
		}
		for vi, l := range plan.leaves() {
			v := &plan.Vars[vi]
			if name := traceName(v); !joined[name] && l != nil {
				t.Errorf("%s: skipped %s keeps a %d-node list", c.name, name, len(l))
			}
		}
	}
}

// randomTree builds a document of about n elements with the tags a, b
// and c, nested up to eight deep, so that below one node a tag occurs as
// a child and deeper, in either order.
func randomTree(t *testing.T, r *rand.Rand, n int) *xmltree.Document {
	t.Helper()
	b := xmltree.NewBuilder()
	count := 0
	var grow func(depth int)
	grow = func(depth int) {
		b.Open(string(rune('a' + r.Intn(3))))
		count++
		for k := r.Intn(4); k > 0 && depth < 8 && count < n; k-- {
			grow(depth + 1)
		}
		b.Close()
	}
	b.Open("r")
	for count < n {
		grow(1)
	}
	b.Close()
	doc, err := b.Document()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// randomRegionPlan draws a plan over randomTree's tags whose optional
// variables carry only bonus predicates, so each one no later variable
// reads is scored in place under the region rule: a required root and a
// required variable below it, then two optional variables under either,
// each with bonuses to the variables before it, ad or pc, on either side,
// with penalties that include 0 and 1e-12.
func randomRegionPlan(r *rand.Rand, doc *xmltree.Document) *Plan {
	tag := func() string { return string(rune('a' + r.Intn(3))) }
	p := &Plan{Doc: doc, Base: 4, FirstOptional: 2}
	p.Vars = []VarSpec{
		{VarID: 1, Tag: tag(), Rel: RelRoot, Anchor: -1},
		{VarID: 2, Tag: tag(), Rel: RelAncestor, Anchor: 0},
	}
	penalties := []float64{0, 0, 1e-12, 0.5, 1}
	bit := uint(0)
	for vi := 2; vi < 4; vi++ {
		v := VarSpec{VarID: vi + 1, Tag: tag(), Rel: RelOptional, Anchor: r.Intn(2)}
		for other := range vi {
			if r.Intn(3) == 0 {
				continue
			}
			pen := penalties[r.Intn(len(penalties))]
			p.DroppedPenalty += pen
			v.Bonus = append(v.Bonus, BonusPred{Other: other, OtherIsAncestor: r.Intn(2) == 0,
				Parent: r.Intn(2) == 0, Penalty: pen, Bit: bit})
			bit++
		}
		p.Vars = append(p.Vars, v)
	}
	p.NumBits = int(bit)
	return p
}

// TestRegionsMatchFullScan holds Run to Run with every candidate of a
// variable scored in place visited (the region rule off), bit for bit,
// at K = 0, 1 and 3 in both organizations and every scheme, on random
// trees where a tag nests below itself and below the others. XMark's
// shapes never put a candidate below a non-candidate ahead of a
// candidate child of the same node, which a pc bonus to the anchor must
// tell apart.
func TestRegionsMatchFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var doc *xmltree.Document
	sparse, full := 0, 0
	for i := range 200 {
		if i%10 == 0 {
			doc = randomTree(t, r, 60+r.Intn(200))
		}
		seed := r.Int63()
		plan := randomRegionPlan(rand.New(rand.NewSource(seed)), doc)
		dense := randomRegionPlan(rand.New(rand.NewSource(seed)), doc)
		dense.leaves()
		for vi := range dense.steps {
			dense.steps[vi].sparse = false
		}
		for _, scheme := range []rank.Scheme{rank.StructureFirst, rank.KeywordFirst, rank.Combined} {
			for _, k := range []int{0, 1, 3} {
				for _, mode := range []Mode{ModeSorted, ModeBuckets} {
					var st, dst PipelineStats
					got := Run(plan, Options{K: k, Scheme: scheme, Mode: mode, Stats: &st})
					want := Run(dense, Options{K: k, Scheme: scheme, Mode: mode, Stats: &dst})
					if !sameAnswers(got, want) {
						t.Fatalf("plan %d, scheme %v, K = %d, mode %d:\n got %v\nwant %v\n%s",
							i, scheme, k, mode, got, want, plan.Explain())
					}
					sparse += st.Scored
					full += dst.Scored
				}
			}
		}
	}
	t.Logf("candidates scored: %d under the region rule, %d without", sparse, full)
	if sparse >= full {
		t.Errorf("the region rule scored %d candidates, the full scan %d", sparse, full)
	}
}

// sameAnswers reports whether a and b agree bit for bit.
func sameAnswers(a, b []Answer) bool {
	return slices.EqualFunc(a, b, func(x, y Answer) bool {
		return x.Node == y.Node && x.Sig == y.Sig &&
			math.Float64bits(x.Score.SS) == math.Float64bits(y.Score.SS) &&
			math.Float64bits(x.Score.KS) == math.Float64bits(y.Score.KS)
	})
}

// randomFlatPlan draws a plan over randomTree's tags whose predicates
// mostly earn nothing: a root, one to three required variables below it,
// some of which only have to exist, and up to two optional variables with
// bonuses to the variables before them whose penalties are 0 twice in
// three. The distinguished variable is the root in two plans of three,
// else a required variable below it.
func randomFlatPlan(r *rand.Rand, doc *xmltree.Document) *Plan {
	tag := func() string { return string(rune('a' + r.Intn(3))) }
	p := &Plan{Doc: doc, Base: 3}
	p.Vars = []VarSpec{{VarID: 1, Tag: tag(), Rel: RelRoot, Anchor: -1}}
	required := 1 + r.Intn(3)
	for vi := 1; vi < required; vi++ {
		rel := []Rel{RelParent, RelAncestor}[r.Intn(2)]
		p.Vars = append(p.Vars, VarSpec{VarID: vi + 1, Tag: tag(), Rel: rel, Anchor: r.Intn(vi)})
	}
	p.FirstOptional = required
	if r.Intn(3) == 0 {
		p.DistVar = r.Intn(required)
	}
	bit := uint(0)
	for vi := required; vi < required+r.Intn(3); vi++ {
		v := VarSpec{VarID: vi + 1, Tag: tag(), Rel: RelOptional, Anchor: r.Intn(required)}
		for other := range vi {
			if r.Intn(2) == 0 {
				continue
			}
			pen := []float64{0, 0, 0.5}[r.Intn(3)]
			p.DroppedPenalty += pen
			v.Bonus = append(v.Bonus, BonusPred{Other: other, OtherIsAncestor: r.Intn(2) == 0,
				Parent: r.Intn(2) == 0, Penalty: pen, Bit: bit})
			bit++
		}
		p.Vars = append(p.Vars, v)
	}
	p.NumBits = int(bit)
	return p
}

// TestSettledStopMatchesFullRun: a run with K > 0 whose root scan may stop
// at its K-th answer (the root distinguished, nothing earned, only
// existential variables after the fused steps) returns the exhaustive
// run's first K answers bit for bit, signatures included. The random
// trees nest every tag below itself, so roots share answers below a
// non-root distinguished variable, and plans with a bonus worth a penalty
// rank a later root first.
func TestSettledStopMatchesFullRun(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var doc *xmltree.Document
	stopped := 0
	for i := range 400 {
		if i%10 == 0 {
			doc = randomTree(t, r, 60+r.Intn(200))
		}
		plan := randomFlatPlan(r, doc)
		for _, scheme := range []rank.Scheme{rank.StructureFirst, rank.KeywordFirst, rank.Combined} {
			full := Run(plan, Options{Scheme: scheme})
			for _, k := range []int{1, 2, 3, 5, 8} {
				for _, mode := range []Mode{ModeSorted, ModeBuckets} {
					var trace []StepTrace
					got := Run(plan, Options{K: k, Scheme: scheme, Mode: mode, Trace: &trace})
					if want := full[:min(k, len(full))]; !sameAnswers(got, want) {
						t.Fatalf("plan %d, scheme %v, K = %d, mode %d:\n got %v\nwant %v\n%s",
							i, scheme, k, mode, got, want, plan.Explain())
					}
					if len(trace) > 0 && trace[0].Scored < trace[0].Candidates {
						stopped++
					}
				}
			}
		}
	}
	t.Logf("%d runs stopped their root scan early", stopped)
	if stopped == 0 {
		t.Error("no run stopped its root scan early")
	}
}
