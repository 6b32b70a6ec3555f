package fxp3

import (
	"fmt"
	"math"
	"unsafe"
)

// hostLittle reports whether the host is little-endian, the byte order
// FXP3 payloads are written in. On little-endian hosts typed views alias
// the snapshot bytes directly; on big-endian hosts they decode into
// fresh slices (correct, just not zero-copy).
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Enc builds a section payload: fixed-width scalar fields and
// length-prefixed byte columns, everything 8-byte aligned so typed views
// over the decoded payload are themselves aligned.
type Enc struct {
	b []byte
}

// U64 appends a fixed 8-byte little-endian integer.
func (e *Enc) U64(v uint64) {
	var buf [8]byte
	putU64(buf[:], v)
	e.b = append(e.b, buf[:]...)
}

// F64 appends a float64 as its IEEE-754 bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Col appends a length-prefixed byte column, padded to 8-byte alignment.
func (e *Enc) Col(p []byte) {
	e.U64(uint64(len(p)))
	e.b = append(e.b, p...)
	for len(e.b)%8 != 0 {
		e.b = append(e.b, 0)
	}
}

// Finish returns the assembled payload.
func (e *Enc) Finish() []byte { return e.b }

// Dec reads a payload written by Enc. Errors are sticky: after the first
// malformed read every subsequent read returns zero values, and Err
// reports the failure — callers check once, at the end.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over a section payload.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decoding error, wrapped in ErrCorrupt.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// U64 reads a fixed 8-byte little-endian integer.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("truncated scalar at offset %d", d.off)
		return 0
	}
	v := getU64(d.b[d.off:])
	d.off += 8
	return v
}

// F64 reads a float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Col reads a length-prefixed byte column as a zero-copy subslice.
func (d *Dec) Col() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("column of %d bytes exceeds remaining %d", n, len(d.b)-d.off)
		return nil
	}
	p := d.b[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(align8(n))
	if d.off > len(d.b) {
		// The final column's padding may be truncated.
		d.off = len(d.b)
	}
	return p
}

// ColI32 appends a column of 32-bit values in little-endian order.
func ColI32[T ~int32 | ~uint32](e *Enc, v []T) {
	if hostLittle {
		e.Col(rawBytes(v))
		return
	}
	p := make([]byte, 4*len(v))
	for i, x := range v {
		putU32(p[4*i:], uint32(x))
	}
	e.Col(p)
}

// ViewI32 reads a column written by ColI32 and returns it as []T —
// aliasing the payload on little-endian hosts, decoding otherwise.
// elems, when >= 0, asserts the expected element count.
func ViewI32[T ~int32 | ~uint32](d *Dec, elems int) []T {
	p := d.Col()
	if d.err != nil {
		return nil
	}
	if len(p)%4 != 0 {
		d.fail("i32 column of %d bytes is not a whole number of elements", len(p))
		return nil
	}
	n := len(p) / 4
	if elems >= 0 && n != elems {
		d.fail("i32 column has %d elements, want %d", n, elems)
		return nil
	}
	if n == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*T)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(getU32(p[4*i:]))
	}
	return out
}

// ColU64 appends a column of 64-bit values in little-endian order.
func ColU64[T ~uint64 | ~int64](e *Enc, v []T) {
	if hostLittle {
		e.Col(rawBytes(v))
		return
	}
	p := make([]byte, 8*len(v))
	for i, x := range v {
		putU64(p[8*i:], uint64(x))
	}
	e.Col(p)
}

// ViewU64 reads a column written by ColU64; see ViewI32.
func ViewU64[T ~uint64 | ~int64](d *Dec, elems int) []T {
	p := d.Col()
	if d.err != nil {
		return nil
	}
	if len(p)%8 != 0 {
		d.fail("u64 column of %d bytes is not a whole number of elements", len(p))
		return nil
	}
	n := len(p) / 8
	if elems >= 0 && n != elems {
		d.fail("u64 column has %d elements, want %d", n, elems)
		return nil
	}
	if n == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*T)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(getU64(p[8*i:]))
	}
	return out
}

// RawI32Pairs appends a column of structs laid out as exactly two 32-bit
// fields (8 bytes/element, no padding). The caller vouches for T's
// layout; on big-endian hosts enc must supply a pre-encoded form via the
// fallback callback.
func RawI32Pairs[T any](e *Enc, v []T, fallback func(i int) (a, b uint32)) {
	if hostLittle {
		e.Col(rawBytes(v))
		return
	}
	p := make([]byte, 8*len(v))
	for i := range v {
		a, b := fallback(i)
		putU32(p[8*i:], a)
		putU32(p[8*i+4:], b)
	}
	e.Col(p)
}

// ViewI32Pairs reads a column written by RawI32Pairs; the fallback
// rebuilds one element from its two decoded halves on big-endian hosts.
func ViewI32Pairs[T any](d *Dec, elems int, fallback func(a, b uint32) T) []T {
	p := d.Col()
	if d.err != nil {
		return nil
	}
	if len(p)%8 != 0 {
		d.fail("pair column of %d bytes is not a whole number of elements", len(p))
		return nil
	}
	n := len(p) / 8
	if elems >= 0 && n != elems {
		d.fail("pair column has %d elements, want %d", n, elems)
		return nil
	}
	if n == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*T)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = fallback(getU32(p[8*i:]), getU32(p[8*i+4:]))
	}
	return out
}

// String returns a column's bytes as a string without copying. The
// string aliases the payload: it is valid only while the underlying
// mapping is open, which the serving layer guarantees.
func String(p []byte, off, n uint64) (string, bool) {
	if off > uint64(len(p)) || n > uint64(len(p))-off {
		return "", false
	}
	if n == 0 {
		return "", true
	}
	return unsafe.String(&p[off], int(n)), true
}

// rawBytes reinterprets a slice's backing array as bytes.
func rawBytes[T any](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	var t T
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*int(unsafe.Sizeof(t)))
}
