package flexpath

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexpath/internal/wal"
)

// goldenFXP2 returns the checked-in FXP2 snapshot of articlesXML, the
// only FXP2 bytes there are now that nothing writes the format.
func goldenFXP2(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(goldenSnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestLoadAuto(t *testing.T) {
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(xmlPath, []byte(articlesXML), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := LoadAuto(xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "doc.fxp3")
	if err := doc.SaveFXP3SnapshotFile(snapPath); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadAuto(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Nodes() != doc.Nodes() {
		t.Errorf("auto-loaded snapshot has %d nodes, want %d", snap.Nodes(), doc.Nodes())
	}
	if _, err := LoadAuto(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
	// A tiny non-XML non-snapshot file must fail cleanly.
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAuto(junk); err == nil {
		t.Error("junk accepted")
	}
	// A plain FXT1 tree snapshot — the tree section of the FXP2 fixture is
	// one — is a typed error naming the file, not an XML parse error.
	fxt1 := fxp2Sections(t, goldenFXP2(t))[0]
	plain := filepath.Join(dir, "doc.fxt")
	if err := os.WriteFile(plain, fxt1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAuto(plain); !errors.Is(err, ErrLegacySnapshot) || !strings.Contains(err.Error(), "doc.fxt") {
		t.Errorf("FXT1 file: err = %v, want ErrLegacySnapshot naming the file", err)
	}
	if _, err := loadDocumentBytes(fxt1); !errors.Is(err, ErrLegacySnapshot) {
		t.Errorf("FXT1 bytes: err = %v, want ErrLegacySnapshot", err)
	}
}

// TestIndexedSnapshotRoundTrip: the FXP2 fixture, written from articlesXML
// by a release that had the encoder, reloads to a document that searches
// and relaxes like a fresh parse of the same XML.
func TestIndexedSnapshotRoundTrip(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := loadIndexedSnapshot(goldenFXP2(t))
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	a, err := doc.Search(q, SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Search(q, SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("answers %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Structural != b[i].Structural || a[i].Keyword != b[i].Keyword {
			t.Errorf("answer %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Relaxation chains (penalties need stats + index) agree too.
	sa, err := doc.Relaxations(q)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := restored.Relaxations(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != len(sb) {
		t.Fatalf("chains differ in length: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].Description != sb[i].Description || sa[i].Penalty != sb[i].Penalty {
			t.Errorf("chain step %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

func TestIndexedSnapshotFileAndAuto(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := LoadAuto(goldenSnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Nodes() != doc.Nodes() {
		t.Errorf("auto-loaded indexed snapshot: %d nodes, want %d", auto.Nodes(), doc.Nodes())
	}
}

func TestIndexedSnapshotRejectsGarbage(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":      {},
		"bad magic":  []byte("NOPE9999"),
		"plain tree": []byte("FXT1whatever"),
		"truncated":  []byte("FXP2\x05abc"),
	} {
		if _, err := loadIndexedSnapshot(data); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", name, err)
		}
	}
}

// TestIndexedSnapshotRejectsTruncationAtEveryOffset cuts a valid FXP2
// snapshot at every possible length: no prefix may load. Regression
// test for the loader trusting section length prefixes — a length
// pointing past the remaining bytes used to surface as a silent short
// read, and a snapshot cut between sections decoded
// cleanly with missing data.
func TestIndexedSnapshotRejectsTruncationAtEveryOffset(t *testing.T) {
	data := goldenFXP2(t)
	for n := 0; n < len(data); n++ {
		if _, err := loadIndexedSnapshot(data[:n]); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("truncation to %d/%d bytes: err = %v, want ErrCorruptSnapshot", n, len(data), err)
		}
	}
	// File loads see the same rejection, with the path in the error.
	path := filepath.Join(t.TempDir(), "cut.fxp2")
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAuto(path); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("truncated snapshot file: err = %v, want ErrCorruptSnapshot", err)
	} else if !strings.Contains(err.Error(), "cut.fxp2") {
		t.Errorf("error does not name the file: %v", err)
	}
}

// A section length prefix that lies beyond the file must be rejected up
// front (ErrCorruptSnapshot), not discovered as a short read.
func TestIndexedSnapshotRejectsLyingSectionLength(t *testing.T) {
	data := goldenFXP2(t)
	// The first section's uvarint length starts right after the 4-byte
	// magic. 0xff 0xff 0xff 0xff 0x7f declares a ~2^35-byte section: far
	// beyond the file, so the load must reject the declaration before
	// parsing a single tree byte.
	lied := append([]byte{}, data[:4]...)
	lied = append(lied, 0xff, 0xff, 0xff, 0xff, 0x7f)
	lied = append(lied, data[5:]...)
	path := filepath.Join(t.TempDir(), "lied.fxp2")
	if err := os.WriteFile(path, lied, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadAuto(path)
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
	}
	if !strings.Contains(err.Error(), "remaining") {
		t.Errorf("lying length not rejected up front: %v", err)
	}
	// A declaration that overflows int is rejected the same way.
	absurd := append([]byte{}, data[:4]...)
	absurd = append(absurd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := loadIndexedSnapshot(absurd); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("absurd length: err = %v, want ErrCorruptSnapshot", err)
	}
}

func TestIndexedSnapshotBM25Preserved(t *testing.T) {
	doc, err := LoadWithOptions(strings.NewReader(articlesXML), DocumentOptions{BM25: true})
	if err != nil {
		t.Fatal(err)
	}
	// The fixture is tf-idf; the scoring is one byte after the index
	// section's magic, and everything BM25 needs is stored either way.
	secs := fxp2Sections(t, goldenFXP2(t))
	if secs[2][4] != 0 {
		t.Fatalf("fixture layout moved: scoring byte is %d", secs[2][4])
	}
	secs[2][4] = 1
	restored, err := loadIndexedSnapshot(fxp2Join(secs))
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(paperQ1)
	a, _ := doc.Search(q, SearchOptions{K: 3, Scheme: KeywordFirst})
	b, _ := restored.Search(q, SearchOptions{K: 3, Scheme: KeywordFirst})
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("answers %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Keyword != b[i].Keyword {
			t.Errorf("BM25 scores drifted after restore: %f vs %f", a[i].Keyword, b[i].Keyword)
		}
	}
}

// TestSnapshotFilePartialWriteSafe simulates a save that dies midway —
// a crash, a full disk — and checks the previously saved snapshot at the
// same path stays loadable. SaveFXP3SnapshotFile writes through
// wal.WriteFileAtomic, so the partial bytes only ever land in a temp
// file that gets cleaned up, never over the visible file.
func TestSnapshotFilePartialWriteSafe(t *testing.T) {
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.fxp3")
	if err := doc.SaveFXP3SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted save: emit a prefix of real snapshot bytes, then fail,
	// exactly like a process killed mid-write.
	boom := errors.New("simulated crash mid-save")
	saveErr := wal.WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(good[:len(good)/2]); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(saveErr, boom) {
		t.Fatalf("partial save error not propagated: %v", saveErr)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, good) {
		t.Fatal("visible snapshot file changed after interrupted save")
	}
	if d, err := LoadAuto(path); err != nil {
		t.Fatalf("snapshot unloadable after interrupted save: %v", err)
	} else {
		d.Close() //nolint:errcheck
	}
	// No temp litter left behind for operators to trip over.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "doc.fxp3" {
			t.Fatalf("unexpected file left in snapshot dir: %s", e.Name())
		}
	}

	// A successful re-save replaces the file atomically.
	if err := doc.SaveFXP3SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if d, err := LoadFXP3SnapshotFile(path); err != nil {
		t.Fatalf("re-saved snapshot unloadable: %v", err)
	} else {
		d.Close() //nolint:errcheck
	}
}
