package varint

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

var magic = [4]byte{'T', 'E', 'S', 'T'}

// stream builds what the formats' writers used to: the magic, then each
// item as a varint (uint64), a length-prefixed string, or raw bytes.
func stream(items ...any) []byte {
	b := append([]byte(nil), magic[:]...)
	for _, it := range items {
		switch v := it.(type) {
		case uint64:
			b = binary.AppendUvarint(b, v)
		case string:
			b = append(binary.AppendUvarint(b, uint64(len(v))), v...)
		case []byte:
			b = append(b, v...)
		}
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	buf := bytes.NewReader(stream(uint64(0), uint64(1<<63+5), "", "héllo", []byte{9, 8}, uint64(MaxCount)))
	r, err := NewReader(buf, "test", magic)
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
	data := stream(uint64(MaxCount+1), uint64(7)) // 7: a length with no bytes behind it
	r, err := NewReader(bytes.NewReader(data), "test", magic)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Count(); n != 0 || r.Err() == nil {
		t.Errorf("count above MaxCount read as %d", n)
	}
	r, _ = NewReader(bytes.NewReader(data), "test", magic)
	r.Uvarint()
	if s := r.String(); s != "" || r.Err() == nil {
		t.Errorf("string past the end read as %q", s)
	}
}
