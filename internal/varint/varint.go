// Package varint is the stream reader the FXT1/FXS1/FXI1 section formats
// (the sections of a legacy FXP2 snapshot) share: a four-byte magic,
// unsigned varints and length-prefixed strings over bufio. Nothing
// writes these formats any more, so there is no Writer.
package varint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// MaxCount caps counts read from snapshots so corrupted or malicious
// input cannot trigger enormous allocations.
const MaxCount = 1 << 31

// Reader reads a stream. Errors are sticky: after the first, every read
// returns a zero value and Err reports it, so a caller checks once per
// loop iteration (a corrupt count must not keep a loop of no-op reads
// spinning) and once at the end.
type Reader struct {
	r    *bufio.Reader
	what string
	err  error
}

// NewReader opens a stream on r and checks its magic. what names the
// reading package in error messages.
func NewReader(r io.Reader, what string, magic [4]byte) (*Reader, error) {
	br := &Reader{r: bufio.NewReaderSize(r, 1<<16), what: what}
	var got [4]byte
	br.Fixed(got[:])
	if br.err == nil && got != magic {
		br.err = fmt.Errorf("%s: snapshot: bad magic %q, want %q", what, got[:], magic[:])
	}
	return br, br.err
}

// Err returns the first error.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: snapshot: %w", r.what, err)
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.fail(err)
		return 0
	}
	return v
}

// Count reads an unsigned varint that sizes or indexes something: at
// most MaxCount.
func (r *Reader) Count() int {
	v := r.Uvarint()
	if v > MaxCount {
		r.fail(fmt.Errorf("implausible count %d", v))
		return 0
	}
	return int(v)
}

// Fixed fills p.
func (r *Reader) Fixed(p []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		r.fail(err)
	}
}

// AppendString reads a length-prefixed string onto the end of dst.
func (r *Reader) AppendString(dst []byte) []byte {
	n := r.Count()
	dst = slices.Grow(dst, n)
	r.Fixed(dst[len(dst) : len(dst)+n])
	if r.err != nil {
		return dst
	}
	return dst[:len(dst)+n]
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.AppendString(nil)) }
