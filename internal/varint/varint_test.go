package varint

import (
	"bytes"
	"strings"
	"testing"
)

var magic = [4]byte{'T', 'E', 'S', 'T'}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, magic)
	w.Uvarint(0)
	w.Uvarint(1<<63 + 5)
	w.String("")
	w.String("héllo")
	w.Fixed([]byte{9, 8})
	w.Uvarint(MaxCount)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, "test", magic)
	if err != nil {
		t.Fatal(err)
	}
	var two [2]byte
	if a, b, s1, s2 := r.Uvarint(), r.Uvarint(), r.String(), r.String(); a != 0 || b != 1<<63+5 || s1 != "" || s2 != "héllo" {
		t.Fatalf("read %d %d %q %q", a, b, s1, s2)
	}
	if r.Fixed(two[:]); two != [2]byte{9, 8} {
		t.Fatalf("fixed bytes %v", two)
	}
	if n := r.Count(); n != MaxCount || r.Err() != nil {
		t.Fatalf("count %d, err %v", n, r.Err())
	}
	// Past the end every read is zero and the first error sticks.
	if r.Count() != 0 || r.String() != "" || r.Uvarint() != 0 || r.Err() == nil {
		t.Fatalf("reads past the end: err %v", r.Err())
	}
	if !strings.HasPrefix(r.Err().Error(), "test: snapshot: ") {
		t.Errorf("error does not name the reader: %v", r.Err())
	}
}

func TestRejects(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOPE...."), "test", magic); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(strings.NewReader("TE"), "test", magic); err == nil {
		t.Error("truncated magic accepted")
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, magic)
	w.Uvarint(MaxCount + 1)
	w.Uvarint(7) // a length with no bytes behind it
	w.Flush()    //nolint:errcheck
	r, err := NewReader(bytes.NewReader(buf.Bytes()), "test", magic)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Count(); n != 0 || r.Err() == nil {
		t.Errorf("count above MaxCount read as %d", n)
	}
	r, _ = NewReader(bytes.NewReader(buf.Bytes()), "test", magic)
	r.Uvarint()
	if s := r.String(); s != "" || r.Err() == nil {
		t.Errorf("string past the end read as %q", s)
	}
}
