package xmltree

import (
	"bytes"
	"testing"
)

// benchDocument builds a mid-sized synthetic document once.
func benchDocument(b *testing.B) (*Document, []byte) {
	b.Helper()
	bld := NewBuilder()
	bld.Open("root")
	for i := 0; i < 2000; i++ {
		bld.Open("item", Attr{Name: "id", Value: "x"})
		bld.Open("name")
		bld.Text("gold silver vintage rare antique")
		bld.Close()
		bld.Open("desc")
		bld.Open("para")
		bld.Text("some descriptive text about the item with several words")
		bld.Close()
		bld.Close()
		bld.Close()
	}
	bld.Close()
	d, err := bld.Document()
	if err != nil {
		b.Fatal(err)
	}
	var xml bytes.Buffer
	if err := d.WriteXML(&xml, d.Root()); err != nil {
		b.Fatal(err)
	}
	return d, xml.Bytes()
}

func BenchmarkParseXML(b *testing.B) {
	_, xml := benchDocument(b)
	b.SetBytes(int64(len(xml)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(xml)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBinarySnapshot(b *testing.B) {
	d, xml := benchDocument(b)
	snap := writeBinary(d)
	b.SetBytes(int64(len(xml))) // same logical content as the XML
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIsAncestor(b *testing.B) {
	d, _ := benchDocument(b)
	n := NodeID(d.Len() - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.IsAncestor(0, n)
		d.IsAncestor(n, 0)
	}
}

func BenchmarkSubtreeText(b *testing.B) {
	d, _ := benchDocument(b)
	items := d.NodesWithTag("item")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SubtreeText(items[i%len(items)])
	}
}
