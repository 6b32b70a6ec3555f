package exec

import (
	"slices"
	"strings"
	"testing"

	"flexpath/internal/ir"
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
			if name := "$" + itoa(v.VarID) + " " + v.Tag; !joined[name] && l != nil {
				t.Errorf("%s: skipped %s keeps a %d-node list", c.name, name, len(l))
			}
		}
	}
}
