// Package fxp3 implements the FXP3 snapshot container: a fixed header, a
// section directory with absolute offsets, lengths and per-section
// CRC32C (Castagnoli, the WAL's checksum), and 8-byte-aligned section
// payloads. The layout is designed to be read in place from an mmap'd
// byte slice: the directory is validated up front, but a section's bytes
// are only touched (and its checksum only verified, faulting its pages
// in) on first access, so opening a snapshot costs one page, not the
// whole file.
//
// Layout (all fixed-width integers little-endian):
//
//	0   magic "FXP3"
//	4   u16 version (1)
//	6   u16 section count
//	8   u32 CRC32C of the directory bytes
//	12  u32 reserved (zero)
//	16  directory: count × 24-byte entries
//	      u32 section id
//	      u32 CRC32C of the section payload
//	      u64 absolute offset (8-byte aligned)
//	      u64 length
//	then the payloads, zero-padded to 8-byte alignment
//
// Payload internals are the owning subsystem's business; this package
// additionally provides the little-endian column encoding those payloads
// share (Enc/Dec and the typed column views, which alias the underlying
// bytes zero-copy on little-endian hosts and decode into fresh slices on
// big-endian ones).
package fxp3

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Magic identifies an FXP3 snapshot.
var Magic = [4]byte{'F', 'X', 'P', '3'}

// Version is the current container version.
const Version = 1

// MaxCount caps the element counts a section payload may declare, so a
// corrupt or malicious snapshot cannot trigger an enormous allocation.
const MaxCount = 1 << 31

// SectionID names a section in the directory.
type SectionID uint32

// The sections an indexed document snapshot carries. Meta is small and
// read at cold-open; the other three are faulted in on first search.
const (
	SectionMeta  SectionID = 1
	SectionTree  SectionID = 2
	SectionStats SectionID = 3
	SectionIndex SectionID = 4
)

// ErrCorrupt reports a structurally invalid or checksum-failing
// snapshot. All corruption detected by this package wraps it.
var ErrCorrupt = errors.New("fxp3: corrupt snapshot")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const headerSize = 16
const dirEntrySize = 24

// Section pairs a section id with its payload for writing.
type Section struct {
	ID   SectionID
	Data []byte
}

// Write assembles a container from sections, in the given order, and
// writes it to w.
func Write(w io.Writer, sections []Section) error {
	dir := make([]byte, len(sections)*dirEntrySize)
	off := uint64(headerSize + len(dir))
	for i, s := range sections {
		off = align8(off)
		e := dir[i*dirEntrySize:]
		putU32(e[0:], uint32(s.ID))
		putU32(e[4:], crc32.Checksum(s.Data, castagnoli))
		putU64(e[8:], off)
		putU64(e[16:], uint64(len(s.Data)))
		off += uint64(len(s.Data))
	}
	var hdr [headerSize]byte
	copy(hdr[:4], Magic[:])
	putU16(hdr[4:], Version)
	putU16(hdr[6:], uint16(len(sections)))
	putU32(hdr[8:], crc32.Checksum(dir, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(dir); err != nil {
		return err
	}
	var pad [8]byte
	pos := uint64(headerSize + len(dir))
	for _, s := range sections {
		if a := align8(pos); a > pos {
			if _, err := w.Write(pad[:a-pos]); err != nil {
				return err
			}
			pos = a
		}
		if _, err := w.Write(s.Data); err != nil {
			return err
		}
		pos += uint64(len(s.Data))
	}
	return nil
}

type dirEntry struct {
	id     SectionID
	crc    uint32
	offset uint64
	length uint64
}

// File is a parsed container over an in-place byte slice (typically an
// mmap region). Parse validates the header and directory eagerly;
// Section verifies each payload's checksum once, on first access.
type File struct {
	data []byte
	dir  []dirEntry
	once []sync.Once
	// verr[i] records the outcome of entry i's checksum pass so later
	// callers see the same error.
	verr []error
}

// Bytes returns the container's bytes, header to last section.
func (f *File) Bytes() []byte { return f.data }

// Parse validates the header and section directory of data. Payload
// bytes are not touched (and, over mmap, not faulted in).
func Parse(data []byte) (*File, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCorrupt, len(data))
	}
	if [4]byte(data[:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	if v := getU16(data[4:]); v != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	count := int(getU16(data[6:]))
	dirEnd := headerSize + count*dirEntrySize
	if dirEnd > len(data) {
		return nil, fmt.Errorf("%w: directory (%d sections) exceeds file size", ErrCorrupt, count)
	}
	dirBytes := data[headerSize:dirEnd]
	if got, want := crc32.Checksum(dirBytes, castagnoli), getU32(data[8:]); got != want {
		return nil, fmt.Errorf("%w: directory checksum mismatch", ErrCorrupt)
	}
	f := &File{
		data: data,
		dir:  make([]dirEntry, count),
		once: make([]sync.Once, count),
		verr: make([]error, count),
	}
	seen := make(map[SectionID]bool, count)
	for i := range f.dir {
		e := dirBytes[i*dirEntrySize:]
		d := dirEntry{
			id:     SectionID(getU32(e[0:])),
			crc:    getU32(e[4:]),
			offset: getU64(e[8:]),
			length: getU64(e[16:]),
		}
		if seen[d.id] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, d.id)
		}
		seen[d.id] = true
		if d.offset%8 != 0 {
			return nil, fmt.Errorf("%w: section %d is misaligned (offset %d)", ErrCorrupt, d.id, d.offset)
		}
		if d.offset > uint64(len(data)) || d.length > uint64(len(data))-d.offset {
			return nil, fmt.Errorf("%w: section %d [%d,+%d) exceeds file size %d",
				ErrCorrupt, d.id, d.offset, d.length, len(data))
		}
		f.dir[i] = d
	}
	return f, nil
}

// Has reports whether the directory lists a section.
func (f *File) Has(id SectionID) bool {
	for i := range f.dir {
		if f.dir[i].id == id {
			return true
		}
	}
	return false
}

// Section returns a section's payload as a subslice of the parsed data
// (zero-copy). The payload's checksum is verified on the first access —
// over mmap, that read is what faults the section's pages in — and the
// verdict is remembered, so later accesses are free.
func (f *File) Section(id SectionID) ([]byte, error) {
	for i := range f.dir {
		if f.dir[i].id != id {
			continue
		}
		d := f.dir[i]
		payload := f.data[d.offset : d.offset+d.length]
		f.once[i].Do(func() {
			if crc32.Checksum(payload, castagnoli) != d.crc {
				f.verr[i] = fmt.Errorf("%w: section %d checksum mismatch", ErrCorrupt, id)
			}
		})
		if f.verr[i] != nil {
			return nil, f.verr[i]
		}
		return payload, nil
	}
	return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
}

func align8(v uint64) uint64 { return (v + 7) &^ 7 }

func putU16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }
func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}
func getU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}
