// Package mmapio memory-maps snapshot files for zero-copy serving. On
// platforms with mmap (any unix), Open maps the file read-only and
// shared, so the bytes live in the kernel page cache: clean pages are
// reclaimable under memory pressure and re-faulted from disk on the next
// access, which is what lets a collection of mapped snapshots exceed RAM.
// Elsewhere Open falls back to reading the whole file into the heap; the
// API is identical, only the residency economics differ.
//
// A Mapping's bytes may be aliased by long-lived structures (interned
// strings, posting arrays), so Close must only be called once no such
// alias can be dereferenced again. The serving layer therefore keeps
// every mapping open until the collection is closed, even after its
// member is removed or replaced.
package mmapio

import (
	"fmt"
	"os"
)

// Mapping is a read-only view of a file's bytes.
type Mapping struct {
	data   []byte
	mapped bool // true when data is an mmap region, false for heap copies
}

// Open maps (or, without mmap support, reads) the file at path.
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size == 0 {
		return &Mapping{}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmapio: %s: file too large to map (%d bytes)", path, size)
	}
	return open(f, int(size))
}

// Bytes returns the mapped bytes. The slice must be treated as read-only:
// the mapping is shared, and writing to it faults.
func (m *Mapping) Bytes() []byte { return m.data }

// Len returns the mapped length.
func (m *Mapping) Len() int { return len(m.data) }

// Close releases the mapping. After Close no alias into Bytes may be
// dereferenced. Close is idempotent.
func (m *Mapping) Close() error {
	if m.data == nil {
		return nil
	}
	data, mapped := m.data, m.mapped
	m.data, m.mapped = nil, false
	if !mapped {
		return nil
	}
	return unmap(data)
}
