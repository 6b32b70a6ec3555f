package ir

import (
	"math/rand"
	"slices"
	"testing"

	"flexpath/internal/xmark"
	"flexpath/internal/xmltree"
)

// nestedDoc is a random document in the shape of XMark descriptions:
// parlists hold listitems that hold text or further parlists, so one tag
// nests inside itself and a witness can have several ancestors of the
// same tag.
func nestedDoc(r *rand.Rand) *xmltree.Document {
	words := []string{"alpha", "beta", "gamma", "omega"}
	b := xmltree.NewBuilder()
	var list func(depth int)
	list = func(depth int) {
		b.Open("parlist")
		for i := 0; i < 1+r.Intn(3); i++ {
			b.Open("listitem")
			if depth < 4 && r.Intn(3) == 0 {
				list(depth + 1)
			} else {
				b.Element("text", words[r.Intn(len(words))]+" "+words[r.Intn(len(words))])
			}
			b.Close()
		}
		b.Close()
	}
	b.Open("site")
	for i := 0; i < 5+r.Intn(20); i++ {
		b.Open("description")
		if r.Intn(2) == 0 {
			list(0)
		} else {
			b.Element("text", words[r.Intn(len(words))])
		}
		b.Close()
	}
	b.Close()
	d, err := b.Document()
	if err != nil {
		panic(err)
	}
	return d
}

// TestWithinMatchesSubtreeScan: both arms of Within (walking up from the
// witnesses and galloping the tag list) equal a naive scan of every
// tag node's subtree, on documents where tags nest inside themselves;
// the memoised list is held at exactly its length, and
// CountSatisfyingWithTag is its length.
func TestWithinMatchesSubtreeScan(t *testing.T) {
	exprs := []string{"alpha", "omega", "alpha and beta", "gamma or omega", `"alpha beta"`, "beta and not gamma", "missing"}
	for seed := int64(0); seed < 60; seed++ {
		doc := nestedDoc(rand.New(rand.NewSource(seed)))
		ix := NewIndex(doc)
		for _, src := range exprs {
			r := ix.Eval(MustParseExpr(src))
			for _, tag := range []string{"site", "description", "parlist", "listitem", "text", "nosuch"} {
				var want []xmltree.NodeID
				for _, n := range doc.NodesWithTag(tag) {
					for w := 0; w < r.Len(); w++ {
						if n <= r.Node(w) && r.Node(w) <= doc.End(n) {
							want = append(want, n)
							break
						}
					}
				}
				id := doc.TagByName(tag)
				for _, walk := range []bool{true, false} {
					if got := r.within1(id, walk); !slices.Equal(got, want) {
						t.Fatalf("seed %d %q tag %s walk=%v: %v, subtree scan %v", seed, src, tag, walk, got, want)
					}
				}
				for pass := 0; pass < 2; pass++ { // computed, then memoised
					got := r.Within(tag)
					if !slices.Equal(got, want) || cap(got) != len(got) {
						t.Fatalf("seed %d %q tag %s pass %d: Within = %v (cap %d), subtree scan %v", seed, src, tag, pass, got, cap(got), want)
					}
					if n := r.CountSatisfyingWithTag(tag); n != len(got) {
						t.Fatalf("seed %d %q tag %s: CountSatisfyingWithTag = %d, len(Within) = %d", seed, src, tag, n, len(got))
					}
				}
			}
		}
	}
}

// BenchmarkWithin holds Within's two arms side by side on a 4 MB XMark
// document at both ends of its direction rule: walk climbs from the
// witnesses, scan gallops the tag list, and rule is whichever Within
// picks (unmemoised). -v logs the witness and tag counts; the rule must
// pick the faster arm in both cases.
func BenchmarkWithin(b *testing.B) {
	x, err := xmark.Build(xmark.Config{TargetBytes: 4 << 20, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	ix := NewIndex(x)
	const tag = "description"
	id := x.TagByName(tag)
	for _, c := range []struct{ name, expr string }{
		{"selective", `"gold silver"`}, // a rare phrase: few witnesses
		{"common", "xml"},              // a hot term: thousands of witnesses
	} {
		r := ix.Eval(MustParseExpr(c.expr))
		walks := r.Len()*walkFactor < len(x.NodesWithTagID(id))
		b.Logf("%s: %d witnesses, %d %s nodes, rule walks: %v", c.name, r.Len(), len(x.NodesWithTagID(id)), tag, walks)
		for _, arm := range []struct {
			name string
			walk bool
		}{{"walk", true}, {"scan", false}, {"rule", walks}} {
			b.Run(c.name+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r.within1(id, arm.walk)
				}
			})
		}
	}
}
