package exec

import (
	"strings"
	"testing"

	"flexpath/internal/ir"
	"flexpath/internal/xmltree"
)

// buildOptionalPlan assembles a small plan with optional variables and
// bonuses directly (avoiding an import cycle with internal/core).
func buildOptionalPlan(t *testing.T) *Plan {
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
