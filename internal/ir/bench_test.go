package ir

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"flexpath/internal/xmltree"
)

func benchIndex(b *testing.B) (*xmltree.Document, *Index) {
	b.Helper()
	var sb strings.Builder
	sb.WriteString("<lib>")
	words := []string{"gold", "silver", "vintage", "rare", "antique", "maple",
		"walnut", "crystal", "marble", "bronze"}
	for i := 0; i < 3000; i++ {
		sb.WriteString("<book><para>")
		for j := 0; j < 12; j++ {
			sb.WriteString(words[(i*7+j*3)%len(words)])
			sb.WriteByte(' ')
		}
		sb.WriteString("</para></book>")
	}
	sb.WriteString("</lib>")
	d, err := xmltree.ParseString(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	return d, NewIndex(d)
}

func BenchmarkIndexBuild(b *testing.B) {
	d, _ := benchIndex(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewIndex(d)
	}
}

func BenchmarkEvalTerm(b *testing.B) {
	_, ix := benchIndex(b)
	e := MustParseExpr("gold")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.cache.Purge() // force re-evaluation
		ix.Eval(e)
	}
}

func BenchmarkEvalConjunction(b *testing.B) {
	_, ix := benchIndex(b)
	e := MustParseExpr("gold and silver")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.cache.Purge()
		ix.Eval(e)
	}
}

func BenchmarkEvalPhrase(b *testing.B) {
	_, ix := benchIndex(b)
	e := MustParseExpr(`"gold silver"`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.cache.Purge()
		ix.Eval(e)
	}
}

func BenchmarkSatisfies(b *testing.B) {
	d, ix := benchIndex(b)
	r := ix.Eval(MustParseExpr("gold"))
	books := d.NodesWithTag("book")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Satisfies(books[i%len(books)])
	}
}

// BenchmarkTopMatchesSort isolates the match-list sort that TopMatches
// and TopContexts run, comparing the typed slices.SortStableFunc
// comparator now in retrieval.go against the reflective sort.SliceStable
// it replaced. Run with -benchmem: the typed variant also drops the
// closure/interface allocations reflection needs.
func BenchmarkTopMatchesSort(b *testing.B) {
	_, ix := benchIndex(b)
	r := ix.Eval(MustParseExpr("gold"))
	src := make([]Match, r.Len())
	for i := range src {
		src[i] = Match{Node: r.Node(i), Score: r.Score(i)}
	}
	scratch := make([]Match, len(src))
	b.Run("typed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, src)
			slices.SortStableFunc(scratch, compareMatches)
		}
	})
	b.Run("reflect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, src)
			sort.SliceStable(scratch, func(i, j int) bool {
				if scratch[i].Score != scratch[j].Score {
					return scratch[i].Score > scratch[j].Score
				}
				return scratch[i].Node < scratch[j].Node
			})
		}
	})
}
