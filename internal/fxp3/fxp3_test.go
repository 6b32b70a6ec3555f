package fxp3

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"
)

func build(t *testing.T, sections []Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, sections); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	sections := []Section{
		{SectionMeta, []byte("meta")},
		{SectionTree, []byte("the tree payload, longer than eight bytes")},
		{SectionIndex, nil},
	}
	data := build(t, sections)
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sections {
		if !f.Has(s.ID) {
			t.Fatalf("section %d missing", s.ID)
		}
		p, err := f.Section(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, s.Data) {
			t.Fatalf("section %d payload %q, want %q", s.ID, p, s.Data)
		}
	}
	if f.Has(SectionStats) {
		t.Error("absent section reported present")
	}
	if _, err := f.Section(SectionStats); !errors.Is(err, ErrCorrupt) {
		t.Errorf("missing section error = %v, want ErrCorrupt", err)
	}
}

func TestSectionPayloadsAligned(t *testing.T) {
	// Odd-length payloads force padding; every section must still start
	// on an 8-byte boundary so typed views over it are aligned.
	data := build(t, []Section{
		{SectionMeta, []byte("x")},
		{SectionTree, []byte("yyy")},
		{SectionStats, []byte("zzzzzzzzz")},
	})
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []SectionID{SectionMeta, SectionTree, SectionStats} {
		if _, err := f.Section(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := range f.dir {
		if f.dir[i].offset%8 != 0 {
			t.Fatalf("section %d at misaligned offset %d", f.dir[i].id, f.dir[i].offset)
		}
	}
}

// TestParseRejectsTruncationAtEveryOffset cuts a valid container at every
// possible length: each prefix must either fail Parse or fail the first
// Section access — never succeed with wrong bytes.
func TestParseRejectsTruncationAtEveryOffset(t *testing.T) {
	data := build(t, []Section{
		{SectionMeta, []byte("meta payload")},
		{SectionTree, bytes.Repeat([]byte("tree"), 16)},
	})
	for n := 0; n < len(data); n++ {
		f, err := Parse(data[:n])
		if err != nil {
			continue
		}
		for _, id := range []SectionID{SectionMeta, SectionTree} {
			if p, err := f.Section(id); err == nil {
				full, _ := Parse(data)
				want, _ := full.Section(id)
				if !bytes.Equal(p, want) {
					t.Fatalf("truncation to %d bytes returned wrong section %d payload", n, id)
				}
			}
		}
		// A parseable prefix must at least lose the last section.
		if _, err := f.Section(SectionTree); err == nil {
			t.Fatalf("truncation to %d/%d bytes still served the final section", n, len(data))
		}
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	good := build(t, []Section{
		{SectionMeta, []byte("meta payload")},
		{SectionTree, bytes.Repeat([]byte("tree"), 16)},
	})
	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       mutate(func(b []byte) { b[0] = 'G' }),
		"bad version":     mutate(func(b []byte) { b[4] = 99 }),
		"huge count":      mutate(func(b []byte) { b[6], b[7] = 0xff, 0xff }),
		"dir bit flip":    mutate(func(b []byte) { b[headerSize] ^= 1 }),
		"dir crc flip":    mutate(func(b []byte) { b[8] ^= 1 }),
		"dup section":     nil, // built below
		"misaligned":      nil,
		"length overflow": nil,
	}
	for name, data := range cases {
		if data == nil {
			continue
		}
		if _, err := Parse(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	// Directory-level lies need the CRC recomputed to reach the entry
	// validation they target.
	redir := func(f func(dir []byte)) []byte {
		b := bytes.Clone(good)
		count := int(getU16(b[6:]))
		dir := b[headerSize : headerSize+count*dirEntrySize]
		f(dir)
		putU32(b[8:], crc32.Checksum(dir, castagnoli))
		return b
	}
	for name, data := range map[string][]byte{
		"dup section": redir(func(dir []byte) {
			copy(dir[dirEntrySize:], dir[:dirEntrySize])
		}),
		"misaligned": redir(func(dir []byte) {
			putU64(dir[8:], getU64(dir[8:])+1)
		}),
		"length overflow": redir(func(dir []byte) {
			putU64(dir[16:], 1<<40)
		}),
	} {
		if _, err := Parse(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	// A payload bit flip parses (the directory is intact) but fails the
	// lazy checksum on access — and the verdict is remembered.
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	f, err := Parse(flipped)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Section(SectionTree); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload bit flip not caught: %v", err)
	}
	if _, err := f.Section(SectionTree); !errors.Is(err, ErrCorrupt) {
		t.Fatal("checksum verdict not remembered")
	}
	if _, err := f.Section(SectionMeta); err != nil {
		t.Fatalf("intact sibling section rejected: %v", err)
	}
}

func TestColumnsRoundTrip(t *testing.T) {
	i32 := []int32{-1, 0, 1, 1 << 30, -(1 << 30)}
	u64 := []uint64{0, 1, 1<<63 + 5}
	type pair struct{ A, B int32 }
	pairs := []pair{{1, 2}, {-3, 4}}
	var e Enc
	e.U64(42)
	e.F64(3.5)
	ColI32(&e, i32)
	ColU64(&e, u64)
	RawI32Pairs(&e, pairs, func(i int) (uint32, uint32) {
		return uint32(pairs[i].A), uint32(pairs[i].B)
	})
	e.Col([]byte("tail"))
	payload := e.Finish()
	if len(payload)%8 != 0 {
		t.Fatalf("payload length %d not 8-byte aligned", len(payload))
	}

	d := NewDec(payload)
	if v := d.U64(); v != 42 {
		t.Fatalf("U64 = %d", v)
	}
	if v := d.F64(); v != 3.5 {
		t.Fatalf("F64 = %v", v)
	}
	gi := ViewI32[int32](d, len(i32))
	gu := ViewU64[uint64](d, len(u64))
	gp := ViewI32Pairs[pair](d, len(pairs), func(a, b uint32) pair {
		return pair{int32(a), int32(b)}
	})
	tail := d.Col()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range i32 {
		if gi[i] != i32[i] {
			t.Fatalf("i32[%d] = %d, want %d", i, gi[i], i32[i])
		}
	}
	for i := range u64 {
		if gu[i] != u64[i] {
			t.Fatalf("u64[%d] = %d, want %d", i, gu[i], u64[i])
		}
	}
	for i := range pairs {
		if gp[i] != pairs[i] {
			t.Fatalf("pair[%d] = %+v, want %+v", i, gp[i], pairs[i])
		}
	}
	if string(tail) != "tail" {
		t.Fatalf("tail = %q", tail)
	}
}

func TestDecErrorsAreStickyAndWrapped(t *testing.T) {
	var e Enc
	ColI32(&e, []int32{1, 2, 3})
	payload := e.Finish()

	// Wrong element-count assertion.
	d := NewDec(payload)
	if v := ViewI32[int32](d, 4); v != nil {
		t.Fatal("mismatched element count returned a view")
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", d.Err())
	}
	// Sticky: subsequent reads stay dead without panicking.
	if v := d.U64(); v != 0 {
		t.Fatal("read after error returned data")
	}

	// Truncated scalar.
	d = NewDec(payload[:4])
	d.U64()
	d.U64()
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("truncated scalar: %v", d.Err())
	}

	// Column length lies beyond the payload.
	var e2 Enc
	e2.U64(1 << 40)
	d = NewDec(e2.Finish())
	if p := d.Col(); p != nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("oversized column: p=%v err=%v", p, d.Err())
	}
}

func TestStringView(t *testing.T) {
	p := []byte("hello world")
	if s, ok := String(p, 6, 5); !ok || s != "world" {
		t.Fatalf("String = %q, %v", s, ok)
	}
	if s, ok := String(p, 0, 0); !ok || s != "" {
		t.Fatalf("empty String = %q, %v", s, ok)
	}
	if _, ok := String(p, 8, 5); ok {
		t.Fatal("out-of-range String accepted")
	}
	if _, ok := String(p, 1<<40, 1); ok {
		t.Fatal("huge offset accepted")
	}
}
