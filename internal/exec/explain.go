package exec

import (
	"fmt"
	"strings"
)

// Explain renders the plan as an indented description of its join
// pipeline, in the spirit of the paper's Figure 8 join plans: one line per
// variable with its scope predicate, required checks, bonus (relaxed)
// predicates and contains predicates. A variable that only has to exist
// is marked [exists: semijoin]: the reduction of its anchor's candidate
// list guarantees it a match, and Run never joins it. A variable no later
// one reads is marked [best: scored in place]: Run keeps only its best
// candidate per tuple and joins it neither. After a variable marked
// [then best per ...], only the best tuple per binding of the variables
// listed goes on.
func (p *Plan) Explain() string {
	skip := p.existential()
	steps := planSteps(p, skip)
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan: %d vars (%d required), base=%.3f dropped=%.3f\n",
		len(p.Vars), p.FirstOptional, p.Base, p.DroppedPenalty)
	for i := range p.Vars {
		v := &p.Vars[i]
		marker := " "
		if i == p.DistVar {
			marker = "*"
		}
		fmt.Fprintf(&sb, "%s %2d. $%d %s", marker, i, v.VarID, v.Tag)
		if len(v.Tags) > 1 {
			fmt.Fprintf(&sb, " (or subtypes: %s)", strings.Join(v.Tags[1:], ", "))
		}
		switch v.Rel {
		case RelRoot:
			sb.WriteString("  [root scan]")
		case RelParent:
			fmt.Fprintf(&sb, "  child-of #%d ($%d)", v.Anchor, p.Vars[v.Anchor].VarID)
		case RelAncestor:
			fmt.Fprintf(&sb, "  descendant-of #%d ($%d)", v.Anchor, p.Vars[v.Anchor].VarID)
		case RelOptional:
			fmt.Fprintf(&sb, "  OPTIONAL under #%d ($%d)", v.Anchor, p.Vars[v.Anchor].VarID)
		}
		switch {
		case skip[i]:
			sb.WriteString("  [exists: semijoin]")
		case steps[i].inPlace:
			sb.WriteString("  [best: scored in place]")
		}
		if g := steps[i].group; g != nil {
			sb.WriteString("  [then best per")
			for _, u := range g {
				fmt.Fprintf(&sb, " $%d", p.Vars[u].VarID)
			}
			sb.WriteByte(']')
		}
		sb.WriteByte('\n')
		for _, vp := range v.Values {
			fmt.Fprintf(&sb, "        value: %s\n", vp.String())
		}
		for _, c := range v.Checks {
			rel := "descendant-of"
			if c.Parent {
				rel = "child-of"
			}
			fmt.Fprintf(&sb, "        check: %s #%d ($%d)\n", rel, c.Other, p.Vars[c.Other].VarID)
		}
		for _, b := range v.Bonus {
			rel := "ad"
			if b.Parent {
				rel = "pc"
			}
			side := "ancestor"
			if !b.OtherIsAncestor {
				side = "descendant"
			}
			fmt.Fprintf(&sb, "        bonus: %s with #%d ($%d, %s side) regain %.4f\n",
				rel, b.Other, p.Vars[b.Other].VarID, side, b.Penalty)
		}
		for _, c := range v.Contains {
			if c.Required {
				fmt.Fprintf(&sb, "        contains (required, ks weight %.2f)\n", c.Weight)
			} else {
				fmt.Fprintf(&sb, "        contains (optional, regain %.4f)\n", c.Penalty)
			}
		}
	}
	return sb.String()
}
