package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testManifest(lsn uint64, names ...string) Manifest {
	m := Manifest{LSN: lsn}
	for i, n := range names {
		m.Members = append(m.Members, Member{Name: n, File: MemberFile(lsn, i)})
	}
	return m
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testManifest(42, "a.xml", "dir/b.xml", "", strings.Repeat("long", 100))
	if err := WriteManifest(dir, want); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %+v, want %+v", got, want)
	}
	// A checkpoint of an empty corpus is a manifest too.
	if err := WriteManifest(dir, Manifest{LSN: 43, Members: []Member{}}); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadManifest(dir); err != nil || got.LSN != 43 || len(got.Members) != 0 {
		t.Fatalf("empty manifest read as %+v, %v", got, err)
	}
}

func TestCheckpointNewestWinsAndPrunesOlder(t *testing.T) {
	dir := t.TempDir()
	older := testManifest(10, "kept.xml", "dropped.xml")
	newer := Manifest{LSN: 20, Members: []Member{older.Members[0], {Name: "new.xml", File: MemberFile(20, 1)}}}
	for _, m := range []Manifest{older, newer} {
		for _, e := range m.Members {
			if err := WriteFileSync(filepath.Join(dir, e.File), func(w io.Writer) error {
				_, err := io.WriteString(w, e.Name)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := WriteManifest(dir, m); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := ReadManifest(dir); err != nil || !reflect.DeepEqual(got, newer) {
		t.Fatalf("got %+v, %v, want the lsn-20 manifest", got, err)
	}
	// The directory holds one manifest; sweeping under it unlinks the
	// member file only the older manifest named, an orphan no manifest
	// ever named and a manifest temp file, and nothing else.
	for _, litter := range []string{MemberFile(15, 0), ManifestName + ".tmp-123", "wal-0000000000000001.log", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, litter), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := Sweep(dir, newer); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	want := []string{ManifestName, MemberFile(10, 0), MemberFile(20, 1), "notes.txt", "wal-0000000000000001.log"}
	if !reflect.DeepEqual(left, want) {
		t.Fatalf("after sweep the directory holds %v, want %v", left, want)
	}
}

// TestCheckpointCorruptNeverFallsBack is the torn-write property: a
// manifest cut at any offset, or with any one byte flipped, is
// ErrCorruptManifest — there is no older checkpoint to resolve to, and
// a damaged one never reads as an empty corpus.
func TestCheckpointCorruptNeverFallsBack(t *testing.T) {
	dir := t.TempDir()
	if err := WriteManifest(dir, testManifest(77, "a.xml", "b.xml", "c.xml")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := ReadManifest(dir); !errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("%s: read %+v, err = %v, want ErrCorruptManifest", what, m, err)
		}
	}
	for n := 0; n < len(good); n++ {
		check(fmt.Sprintf("cut at %d/%d", n, len(good)), good[:n])
	}
	for i := range good {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			bad := bytes.Clone(good)
			bad[i] ^= mask
			check(fmt.Sprintf("byte %d ^ %#x", i, mask), bad)
		}
	}
	check("trailing byte", append(bytes.Clone(good), 0))
}

func TestCheckpointAllCorruptIsError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("FXM1garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("garbage manifest: err = %v, want ErrCorruptManifest", err)
	}
	// A checksum-valid manifest that points outside the member files is
	// as corrupt as a torn one.
	if err := WriteManifest(dir, Manifest{LSN: 1, Members: []Member{{Name: "a", File: "../wal-0000000000000001.log"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("manifest naming a foreign file: err = %v, want ErrCorruptManifest", err)
	}
	// A container from the release that checkpointed into one file is
	// refused by name, valid manifest beside it or not.
	if err := WriteManifest(dir, testManifest(5, "a.xml")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint-0000000000000007.fxpc"), []byte("FXPC"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); !errors.Is(err, ErrLegacyCheckpoint) {
		t.Fatalf("legacy container: err = %v, want ErrLegacyCheckpoint", err)
	}
}

func TestCheckpointEmptyDir(t *testing.T) {
	for _, dir := range []string{t.TempDir(), filepath.Join(t.TempDir(), "missing")} {
		m, err := ReadManifest(dir)
		if err != nil || m.LSN != 0 || len(m.Members) != 0 {
			t.Fatalf("%s: read %+v, err = %v, want the zero manifest", dir, m, err)
		}
		if err := Sweep(dir, m); err != nil {
			t.Fatalf("%s: sweep: %v", dir, err)
		}
	}
}

func TestWriteFileSyncRemovesPartialFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), MemberFile(1, 0))
	boom := errors.New("boom")
	err := WriteFileSync(path, func(w io.Writer) error {
		io.WriteString(w, "partial") //nolint:errcheck
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("partial member file left behind: %v", err)
	}
}

func TestWriteFileAtomicPreservesOldOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.fxp2")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "good contents")
		return err
	}); err != nil {
		t.Fatalf("initial write: %v", err)
	}
	// A writer that fails midway — after emitting partial bytes, like a
	// crashed snapshot save — must leave the visible file untouched.
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "partial gar"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "good contents" {
		t.Fatalf("visible file corrupted: %q err=%v", got, err)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	for _, content := range []string{"one", "two longer contents", "3"} {
		if err := WriteFileAtomic(path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("got %q err=%v, want %q", got, err, content)
		}
	}
}
