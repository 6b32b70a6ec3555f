package ir

import (
	"strings"
	"testing"

	"flexpath/internal/xmltree"
)

func benchIndex(b testing.TB) (*xmltree.Document, *Index) {
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
		ix.Eval(e)
	}
}

func BenchmarkEvalConjunction(b *testing.B) {
	_, ix := benchIndex(b)
	e := MustParseExpr("gold and silver")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Eval(e)
	}
}

// BenchmarkEvalOr is the coll_adhoc shape: an Or of two terms that each
// occur in every paragraph, merged without a sort.
func BenchmarkEvalOr(b *testing.B) {
	_, ix := benchIndex(b)
	e := MustParseExpr("gold or silver")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Eval(e)
	}
}

func BenchmarkEvalPhrase(b *testing.B) {
	_, ix := benchIndex(b)
	e := MustParseExpr(`"gold silver"`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
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
