package wal

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes a file so that path never holds a partial
// state: the content goes to a temp file in the same directory, is
// fsync'd, and only then renamed over path, with the directory fsync'd
// so the rename itself survives a crash. On any error the temp file is
// removed and the previous contents of path (if any) are untouched. The
// checkpoint manifest and snapshot saving share this helper: a crash
// mid-write must never leave a truncated, unloadable file where a good
// one was.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()           //nolint:errcheck // already failing
			os.Remove(tmp.Name()) //nolint:errcheck // best effort
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so recent renames and creations in it are
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileSync writes and fsyncs a file under a name nothing refers to
// yet — a checkpoint member file, which only the manifest written after
// it can make part of the corpus. It needs neither the temp file nor the
// rename of WriteFileAtomic (a torn file under an unreferenced name is
// garbage for Sweep, not damage), and leaves the directory sync to the
// caller so a checkpoint pays for one, not one per member.
func WriteFileSync(path string, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path) //nolint:errcheck // best effort
	}
	return err
}
