package xmltree

import (
	"bytes"
	"testing"
)

// FuzzParse: the XML loader must never panic, and every accepted document
// must satisfy the interval invariants and survive a binary round trip.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`<a/>`, `<a><b>x</b></a>`, `<a x="1">t</a>`, `<a><a><a/></a></a>`,
		`<a>&lt;</a>`, `<a`, `</a>`, `<a><b></a></b>`, `<?xml?><a/>`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseString(src)
		if err != nil {
			return
		}
		for n := NodeID(0); int(n) < d.Len(); n++ {
			if d.End(n) < n || int(d.End(n)) >= d.Len() {
				t.Fatalf("bad interval at %d for %q", n, src)
			}
			if n > 0 {
				p := d.Parent(n)
				if !(p < n && n <= d.End(p)) {
					t.Fatalf("bad parent nesting at %d for %q", n, src)
				}
			}
		}
		d2, err := ReadBinary(bytes.NewReader(writeBinary(d)))
		if err != nil || d2.Len() != d.Len() {
			t.Fatalf("snapshot round trip failed: %v", err)
		}
	})
}
