//go:build !unix

package mmapio

import "os"

func open(f *os.File, size int) (*Mapping, error) { return openFallback(f, size) }

// unmap is never reached on platforms without mmap (a mapping's mapped
// field is always false), but the symbol must exist for Close.
func unmap([]byte) error { return nil }
