package exec

import (
	"slices"
	"strings"
	"testing"
)

func TestExplain(t *testing.T) {
	plan := buildOptionalPlan(t)
	out := plan.Explain()
	for _, want := range []string{
		"plan: 4 vars (2 required)",
		"$1 book  [root scan]",
		"child-of #0",
		"OPTIONAL under #1",
		"bonus: pc with #1",
		"contains (optional, regain 0.2500)",
		"*", // distinguished marker
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

// TestExplainMarksExistential: a required variable that only has to exist
// is marked, so a step that Run skips does not silently vanish from the
// description; the distinguished variable and optional ones never are.
func TestExplainMarksExistential(t *testing.T) {
	exact := &Plan{Doc: bookDoc(t), Base: 2, FirstOptional: 3, Vars: []VarSpec{
		{VarID: 1, Tag: "book", Rel: RelRoot},
		{VarID: 2, Tag: "chapter", Rel: RelParent, Anchor: 0},
		{VarID: 3, Tag: "para", Rel: RelAncestor, Anchor: 0},
	}}
	out := exact.Explain()
	for _, want := range []string{
		"$1 book  [root scan]\n",
		"$2 chapter  child-of #0 ($1)  [exists: semijoin]\n",
		"$3 para  descendant-of #0 ($1)  [exists: semijoin]\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// In the optional plan the chapter anchors optional variables.
	if out := buildOptionalPlan(t).Explain(); strings.Contains(out, "exists") {
		t.Errorf("optional plan marks a joined variable existential:\n%s", out)
	}
}

// TestExplainMarksInPlace: a variable no later one reads is marked as
// scored in place, and the variable after which an earlier one is read no
// more names the bindings the tuples are then grouped by. The trace keeps
// a row for every step scored in place.
func TestExplainMarksInPlace(t *testing.T) {
	plan := buildOptionalPlan(t)
	// The note hangs off the book, so the para is the chapter's last
	// reader.
	plan.Vars[3].Anchor = 0
	plan.Vars[3].Bonus = []BonusPred{{Other: 0, OtherIsAncestor: true, Penalty: 0.5, Bit: 2}}
	out := plan.Explain()
	for _, want := range []string{
		"$2 chapter  child-of #0 ($1)\n",
		"$3 para  OPTIONAL under #1 ($2)  [best: scored in place]  [then best per $1]\n",
		"$4 note  OPTIONAL under #0 ($1)  [best: scored in place]\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	var trace []StepTrace
	if n := len(Run(plan, Options{Trace: &trace})); n != 120 {
		t.Fatalf("%d answers, want 120", n)
	}
	var steps []string
	for _, st := range trace {
		steps = append(steps, st.Var)
		if st.TuplesOut != 120 {
			t.Errorf("step %s leaves %d tuples, want one per book", st.Var, st.TuplesOut)
		}
	}
	if want := []string{"$1 book", "$2 chapter", "$3 para", "$4 note"}; !slices.Equal(steps, want) {
		t.Errorf("trace rows %v, want %v", steps, want)
	}
}
