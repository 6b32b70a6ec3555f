package core

import (
	"testing"

	"flexpath/internal/ir"
	"flexpath/internal/rank"
	"flexpath/internal/tpq"
)

// TestPlansShareChainResults: a chain evaluates each expression class of
// its universe once, and every plan of its template, scored and exact, at
// every level, carries for each contains predicate the very *ir.Result
// the chain's penalties were computed from; a penalizer over those
// results reproduces the chain's penalties bit for bit.
func TestPlansShareChainResults(t *testing.T) {
	f := xmarkFixture(t, 200<<10, 3)
	for _, src := range []string{
		`//item[./name and ./description[.contains("vintage" or "walnut")]]`,
		`//open_auction[./bidder/date and ./annotation/description[.contains("rare" or "oak")] and .contains("gold")]`,
		`//item[./description[.contains("gold")] and ./mailbox/mail/text[.contains("gold" and "silver")]]`,
	} {
		c := f.chain(t, src)
		u := c.U
		seen := map[*ir.Result]bool{}
		for k, r := range c.ft {
			if r == nil || seen[r] {
				t.Fatalf("%s: class %d has result %p", src, k, r)
			}
			seen[r] = true
		}
		pen := rank.NewPenalizer(f.st, c.ft, c.Weights(), u)
		for i := 0; i < u.Len(); i++ {
			if droppable(u, i, u.VarOf(c.Original.Nodes[0].ID)) && pen.Penalty(i) != c.penalty[i] {
				t.Errorf("%s: %s penalty %v, chain has %v", src, u.Key(i), pen.Penalty(i), c.penalty[i])
			}
		}
		tmpl := NewTemplate(c)
		for j := 0; j <= c.Len(); j++ {
			p, err := tmpl.PlanAt(j)
			if err != nil {
				t.Fatal(err)
			}
			// PlanAt lists a variable's surviving contains predicates,
			// then its dropped ones, each in universe order.
			want := map[int][]*ir.Result{}
			for _, set := range []tpq.Bits{c.RemainingAt(j), c.DroppedUpTo(j)} {
				for i := set.Next(0); i >= 0; i = set.Next(i + 1) {
					if pr := u.Pred(i); pr.Kind == tpq.PredContains {
						want[pr.X] = append(want[pr.X], c.ft[u.Class(i)])
					}
				}
			}
			for _, v := range p.Vars {
				if len(v.Contains) != len(want[v.VarID]) {
					t.Fatalf("%s level %d: $%d has %d contains specs, want %d", src, j, v.VarID, len(v.Contains), len(want[v.VarID]))
				}
				for k, cs := range v.Contains {
					if cs.Res != want[v.VarID][k] {
						t.Errorf("%s level %d: $%d contains %d is not the chain's result", src, j, v.VarID, k)
					}
				}
			}
			e, err := tmpl.ExactPlanAt(j)
			if err != nil {
				t.Fatal(err)
			}
			q := c.QueryAt(j)
			for vi, n := range q.Nodes {
				for k, expr := range n.Contains {
					if r := e.Vars[vi].Contains[k].Res; r != c.ft[u.ClassOf(expr.Canon())] || r != c.FullText(expr) {
						t.Errorf("%s exact level %d: $%d contains %s is not the chain's result", src, j, n.ID, expr.Canon())
					}
				}
			}
		}
	}
}
