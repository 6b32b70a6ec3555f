package exec

import (
	"math/rand"
	"testing"

	"flexpath/internal/ir"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

func benchTree(b *testing.B) *xmltree.Document {
	b.Helper()
	bld := xmltree.NewBuilder()
	r := rand.New(rand.NewSource(7))
	bld.Open("root")
	for i := 0; i < 3000; i++ {
		bld.Open("a")
		for j := 0; j < 1+r.Intn(3); j++ {
			bld.Open("b")
			if r.Intn(2) == 0 {
				bld.Open("c")
				bld.Text("gold words")
				bld.Close()
			}
			bld.Close()
		}
		bld.Close()
	}
	bld.Close()
	d, err := bld.Document()
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkSemiJoinHasDescendant(b *testing.B) {
	d := benchTree(b)
	outer := d.NodesWithTag("a")
	inner := d.NodesWithTag("c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SemiJoinHasDescendant(d, outer, inner)
	}
}

func BenchmarkSemiJoinHasChild(b *testing.B) {
	d := benchTree(b)
	outer := d.NodesWithTag("a")
	inner := d.NodesWithTag("b")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SemiJoinHasChild(d, outer, inner)
	}
}

func BenchmarkEvaluateExact(b *testing.B) {
	d := benchTree(b)
	ev := NewEvaluator(d, ir.NewIndex(d))
	q := tpq.MustParse(`//a[./b[./c[.contains("gold")]]]`)
	ev.Evaluate(q) // warm the IR cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Evaluate(q)
	}
}

// BenchmarkEvaluateLeaf times evaluateLeaf on a leaf with two required
// contains predicates whose witnesses sit under half of the tag's nodes:
// the first predicate's (memoized) Within list, narrowed by one galloping
// semijoin pass against the second. internal/ir's BenchmarkWithin times
// the Within arms themselves.
func BenchmarkEvaluateLeaf(b *testing.B) {
	d := benchTree(b)
	ix := ir.NewIndex(d)
	v := &VarSpec{Tag: "b", Contains: []ContainsSpec{
		{Res: ix.Eval(ir.MustParseExpr("gold")), Required: true},
		{Res: ix.Eval(ir.MustParseExpr("words")), Required: true},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		evaluateLeaf(d, v)
	}
}

// benchKernels compares each batched kernel against its retained scalar
// oracle on one (outer, inner) pair.
func benchKernels(b *testing.B, d *xmltree.Document, outer, inner []xmltree.NodeID) {
	for _, kc := range kernelCases {
		b.Run("scalar/"+kc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kc.scalar(d, outer, inner)
			}
		})
		b.Run("batch/"+kc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kc.batch(d, outer, inner)
			}
		})
	}
}

func BenchmarkJoinKernels(b *testing.B) {
	d := benchTree(b)
	benchKernels(b, d, d.NodesWithTag("a"), d.NodesWithTag("b"))
}

// BenchmarkJoinKernelsSkewed joins a short outer list against a long
// inner list — the regime where galloping's logarithmic probes beat both
// the scalar per-element binary search and a plain linear merge.
func BenchmarkJoinKernelsSkewed(b *testing.B) {
	d := benchTree(b)
	all := make([]xmltree.NodeID, d.Len())
	for i := range all {
		all[i] = xmltree.NodeID(i)
	}
	outer := d.NodesWithTag("a")
	short := outer[:len(outer)/64]
	benchKernels(b, d, short, all)
}

func BenchmarkDescendantsInRange(b *testing.B) {
	d := benchTree(b)
	list := d.NodesWithTag("b")
	anchors := d.NodesWithTag("a")
	// narrow: each anchor's subtree holds a handful of list nodes — the
	// regime where the old linear upper-bound scan was already cheap.
	b.Run("narrow/scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scalarDescendantsInRange(d, list, anchors[i%len(anchors)])
		}
	})
	b.Run("narrow/gallop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			descendantsFrom(d, list, anchors[i%len(anchors)], 0)
		}
	})
	// wide: the anchor is the document root, so the linear scan walks the
	// entire list while the galloped upper bound stays logarithmic.
	root := xmltree.NodeID(0)
	b.Run("wide/scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scalarDescendantsInRange(d, list, root)
		}
	})
	b.Run("wide/gallop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			descendantsFrom(d, list, root, 0)
		}
	})
}
