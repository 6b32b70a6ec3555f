package exec

import (
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
