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
