package ir

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"flexpath/internal/xmltree"
)

// TestHeldResultsSurviveScratchReuse: what Eval and Within return is the
// caller's to keep. Results and Within lists are held while many other
// evaluations, of every operator, run first on this goroutine and then
// concurrently on several; afterwards every held column still holds what
// it held. An evaluator that returned one of its pooled buffers instead of
// a copy fails here (under -race, also as a data race).
func TestHeldResultsSurviveScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var ixs []*Index
	for len(ixs) < 4 {
		if d := randomEvalDoc(r); d.Len() >= 200 {
			ixs = append(ixs, NewIndex(d))
		}
	}
	tags := []string{"r", "s", "t"}
	type heldNodes struct {
		what      string
		got, want []xmltree.NodeID
	}
	type heldScores struct {
		what      string
		got, want []float64
	}
	var nodes []heldNodes
	var scores []heldScores
	for _, ix := range ixs {
		for i := 0; i < 20; i++ {
			e := randomExpr(r, 3)
			res := ix.Eval(e)
			nodes = append(nodes, heldNodes{e.Canon(), res.nodes, slices.Clone(res.nodes)})
			scores = append(scores, heldScores{e.Canon(), res.scores, slices.Clone(res.scores)})
			for _, tag := range tags {
				w := res.Within(tag)
				nodes = append(nodes, heldNodes{e.Canon() + " within " + tag, w, slices.Clone(w)})
			}
		}
	}
	churn := func(seed int64) {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			res := ixs[r.Intn(len(ixs))].Eval(randomExpr(r, 3))
			for _, tag := range tags {
				res.Within(tag)
			}
		}
	}
	churn(100)
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			churn(200 + g)
		}()
	}
	wg.Wait()
	for _, h := range nodes {
		if !slices.Equal(h.got, h.want) {
			t.Errorf("%s: held nodes changed to %v, were %v", h.what, h.got, h.want)
		}
	}
	for _, h := range scores {
		if !slices.Equal(h.got, h.want) {
			t.Errorf("%s: held scores changed to %v, were %v", h.what, h.got, h.want)
		}
	}
}
