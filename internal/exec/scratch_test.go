package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"flexpath/internal/xmark"
	"flexpath/internal/xmltree"
)

// TestHeldSemiJoinsSurviveScratchReuse: SemiJoinHasChild and
// SemiJoinHasDescendant build in pooled scratch and return copies, and a
// plan's semijoin-reduced leaf lists are copies too. Outputs are held
// while many other joins and leaf reductions run, first on this goroutine
// and then concurrently on several; afterwards every held list still
// holds what it held. A kernel or a reduction that kept a scratch buffer
// fails here (under -race, also as a data race).
func TestHeldSemiJoinsSurviveScratchReuse(t *testing.T) {
	d, err := xmark.Build(xmark.Config{TargetBytes: 96 << 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tags := []string{"site", "item", "description", "parlist", "listitem", "text",
		"keyword", "person", "name", "open_auction", "annotation", "mail"}
	plan := func() *Plan {
		return &Plan{
			Doc: d,
			Vars: []VarSpec{
				{VarID: 1, Tag: "item", Rel: RelRoot},
				{VarID: 2, Tag: "description", Rel: RelParent, Anchor: 0},
				{VarID: 3, Tag: "parlist", Rel: RelParent, Anchor: 1},
			},
			FirstOptional: 3,
		}
	}
	type held struct {
		what      string
		got, want []xmltree.NodeID
	}
	var hold []held
	for _, outer := range tags {
		for _, inner := range tags {
			o, i := d.NodesWithTag(outer), d.NodesWithTag(inner)
			c, a := SemiJoinHasChild(d, o, i), SemiJoinHasDescendant(d, o, i)
			hold = append(hold,
				held{fmt.Sprintf("%s has child %s", outer, inner), c, slices.Clone(c)},
				held{fmt.Sprintf("%s has descendant %s", outer, inner), a, slices.Clone(a)})
		}
	}
	p := plan()
	for vi, l := range p.leaves() {
		hold = append(hold, held{fmt.Sprintf("plan leaf %d", vi), l, slices.Clone(l)})
	}
	if len(p.leaves()[0]) >= len(d.NodesWithTag("item")) {
		t.Fatal("the plan's root list was not reduced: the test holds no reduced copy")
	}
	churn := func(seed int64) {
		r := rand.New(rand.NewSource(seed))
		for n := 0; n < 400; n++ {
			o, i := d.NodesWithTag(tags[r.Intn(len(tags))]), d.NodesWithTag(tags[r.Intn(len(tags))])
			SemiJoinHasChild(d, o, i)
			SemiJoinHasDescendant(d, o, i)
			if n%20 == 0 {
				plan().leaves()
			}
		}
	}
	churn(1)
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			churn(2 + g)
		}()
	}
	wg.Wait()
	for _, h := range hold {
		if !slices.Equal(h.got, h.want) {
			t.Errorf("%s: held list changed (%d nodes, were %d)", h.what, len(h.got), len(h.want))
		}
	}
}
