package flexpath

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fxp3Bytes(t *testing.T, doc *Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := doc.SaveFXP3Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFXP3FileMetaAndAuto(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.fxp3")
	if err := doc.SaveFXP3SnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	meta, err := ReadFXP3Meta(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Nodes != doc.Nodes() || meta.BM25 {
		t.Fatalf("meta %+v, want %d nodes, tf-idf", meta, doc.Nodes())
	}
	if meta.SourceBytes <= 0 || meta.Tags <= 0 {
		t.Fatalf("meta %+v missing source size or tag count", meta)
	}

	// LoadAuto detects the FXP3 magic and takes the mmap path.
	auto, err := LoadAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close() //nolint:errcheck
	if diff := fxp3Diff(t, fxp3Bytes(t, auto), fxp3Bytes(t, doc)); diff != "" {
		t.Errorf("LoadAuto of the FXP3 file: %s differs", diff)
	}

	// Close is idempotent, and a no-op for documents without a mapping.
	if err := auto.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := doc.Close(); err != nil {
		t.Fatalf("Close on unmapped document: %v", err)
	}

	if _, err := LoadFXP3SnapshotFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := ReadFXP3Meta(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted by ReadFXP3Meta")
	}
}

func TestFXP3BM25Preserved(t *testing.T) {
	doc, err := LoadWithOptions(strings.NewReader(articlesXML), DocumentOptions{BM25: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.fxp3")
	if err := doc.SaveFXP3SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	meta, err := ReadFXP3Meta(path)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.BM25 {
		t.Fatal("meta lost the BM25 flag")
	}
}

// TestFXP3RejectsTruncationAtEveryOffset cuts a valid FXP3 snapshot at
// every possible length: no prefix may load. (The section directory
// covers the whole payload and each section is checksummed, so any cut
// lands in a failed directory check, a missing section or a checksum
// mismatch.) A cut inside the 4-byte magic leaves bytes that are not a
// snapshot by the magic rule: they parse as XML and fail there.
func TestFXP3RejectsTruncationAtEveryOffset(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	data := fxp3Bytes(t, doc)
	for n := 0; n < len(data); n++ {
		_, err := loadDocumentBytes(data[:n])
		switch {
		case err == nil:
			t.Fatalf("truncation to %d/%d bytes loaded", n, len(data))
		case n < 4 && errors.Is(err, ErrCorruptSnapshot):
			t.Fatalf("truncation to %d bytes, inside the magic: err = %v, want an XML error", n, err)
		case n >= 4 && !errors.Is(err, ErrCorruptSnapshot):
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorruptSnapshot", n, err)
		}
	}
}

func TestFXP3RejectsBitFlips(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	data := fxp3Bytes(t, doc)
	// Flipping any single bit must be caught: header and directory by
	// Parse, payloads by the per-section checksum. Sampling every 97th
	// byte keeps the test fast while walking all regions of the file. A
	// flip in the magic (offset 0) leaves no snapshot: the bytes parse as
	// XML and fail there.
	for off := 0; off < len(data); off += 97 {
		b := bytes.Clone(data)
		b[off] ^= 0x10
		_, err := loadDocumentBytes(b)
		switch {
		case err == nil:
			t.Fatalf("bit flip at offset %d loaded", off)
		case off < 4 && errors.Is(err, ErrCorruptSnapshot):
			t.Fatalf("bit flip at offset %d, in the magic: err = %v, want an XML error", off, err)
		case off >= 4 && !errors.Is(err, ErrCorruptSnapshot):
			t.Fatalf("bit flip at offset %d: err = %v, want ErrCorruptSnapshot", off, err)
		}
	}
}

func TestFXP3FileErrorsNameTheFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.fxp3")
	if err := os.WriteFile(path, []byte("FXP3 but then garbage follows"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, load := range []func() error{
		func() error { _, err := LoadFXP3SnapshotFile(path); return err },
		func() error { _, err := ReadFXP3Meta(path); return err },
		func() error { _, err := LoadAuto(path); return err },
		func() error { return NewCollection().AddSnapshotFile("broken", path) },
		func() error { return NewCollection().AddFile(path) },
	} {
		err := load()
		if err == nil {
			t.Fatal("garbage FXP3 file accepted")
		}
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("err = %v, want ErrCorruptSnapshot", err)
		}
		if !strings.Contains(err.Error(), "broken.fxp3") {
			t.Errorf("error does not name the file: %v", err)
		}
	}
}
