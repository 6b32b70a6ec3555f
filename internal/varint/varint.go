// Package varint is the stream codec the FXT1/FXS1/FXI1 section formats
// (the sections of an FXP2 snapshot) share: a four-byte magic, unsigned
// varints and length-prefixed strings over bufio. Each of the three
// formats used to carry its own copy of these helpers.
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

// Writer writes a stream. Write errors stick to the underlying
// bufio.Writer and surface from Flush.
type Writer struct{ w *bufio.Writer }

// NewWriter starts a stream on w with its magic.
func NewWriter(w io.Writer, magic [4]byte) Writer {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(magic[:]) //nolint:errcheck // surfaced by Flush
	return Writer{bw}
}

// Uvarint writes v as an unsigned varint.
func (w Writer) Uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	w.w.Write(buf[:binary.PutUvarint(buf[:], v)]) //nolint:errcheck // surfaced by Flush
}

// String writes s with its length.
func (w Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.w.WriteString(s) //nolint:errcheck // surfaced by Flush
}

// Fixed writes p as it is.
func (w Writer) Fixed(p []byte) { w.w.Write(p) } //nolint:errcheck // surfaced by Flush

// Flush writes out what is buffered and reports the first write error.
func (w Writer) Flush() error { return w.w.Flush() }

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
