package flexpath

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexpath/internal/fxp3"
)

const collDocA = `
<journal>
  <article id="j1"><section><algorithm>x</algorithm>
    <paragraph>xml streaming methods</paragraph></section></article>
</journal>`

const collDocB = `
<proceedings>
  <article id="p1"><section>
    <title>xml streaming</title><algorithm>y</algorithm>
    <paragraph>unrelated</paragraph></section></article>
  <article id="p2"><section>
    <paragraph>more xml streaming text</paragraph></section></article>
</proceedings>`

func testCollection(t *testing.T) *Collection {
	t.Helper()
	c := NewCollection()
	a, err := LoadString(collDocA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadString(collDocB)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add("a.xml", a); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("b.xml", b); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCollectionSearchMerges(t *testing.T) {
	c := testCollection(t)
	q := MustParseQuery(paperQ1)
	answers, err := c.Search(q, SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 3 {
		t.Fatalf("got %d answers", len(answers))
	}
	// j1 is the only exact match across the corpus and must rank first.
	if answers[0].ID != "j1" || answers[0].DocName != "a.xml" {
		t.Errorf("top answer = %s from %s", answers[0].ID, answers[0].DocName)
	}
	// Global ordering is by score across documents.
	for i := 1; i < len(answers); i++ {
		if answers[i].Structural > answers[i-1].Structural+1e-9 {
			t.Errorf("merged ranking out of order at %d", i)
		}
	}
	seenDocs := map[string]bool{}
	for _, a := range answers {
		seenDocs[a.DocName] = true
	}
	if !seenDocs["a.xml"] || !seenDocs["b.xml"] {
		t.Errorf("answers not merged across documents: %v", seenDocs)
	}
}

func TestCollectionDuplicateName(t *testing.T) {
	c := NewCollection()
	d, _ := LoadString(collDocA)
	if err := c.Add("x", d); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("x", d); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestCollectionAccessors(t *testing.T) {
	c := testCollection(t)
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Nodes() == 0 {
		t.Error("Nodes = 0")
	}
	if _, ok := c.Document("a.xml"); !ok {
		t.Error("a.xml not found")
	}
	if _, ok := c.Document("zzz"); ok {
		t.Error("phantom document found")
	}
}

func TestCollectionMetricsAccumulate(t *testing.T) {
	c := testCollection(t)
	var m Metrics
	if _, err := c.Search(MustParseQuery(paperQ1), SearchOptions{
		K: 3, Algorithm: SSO, Metrics: &m,
	}); err != nil {
		t.Fatal(err)
	}
	if m.PlansRun < 2 {
		t.Errorf("expected plans from both documents, got %+v", m)
	}
}

// TestLoadCollectionDir: CorpusFiles selects a directory's corpus files
// and AddFile loads each, the way flexserve -dir does.
func TestLoadCollectionDir(t *testing.T) {
	dir := t.TempDir()
	for i, src := range []string{collDocA, collDocB} {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("d%d.xml", i)), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A non-XML file must be skipped.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Extension matching is case-insensitive: .XML must load (regression
	// for the suffix check that only accepted lowercase ".xml").
	if err := os.WriteFile(filepath.Join(dir, "UPPER.XML"), []byte(collDocA), 0o644); err != nil {
		t.Fatal(err)
	}
	paths, err := CorpusFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollection()
	for _, p := range paths {
		if err := c.AddFile(p); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Errorf("loaded %d documents, want 3", c.Len())
	}
	if _, ok := c.Document(filepath.Join(dir, "UPPER.XML")); !ok {
		t.Errorf("UPPER.XML not loaded; names: %v", c.Names())
	}
	if _, err := CorpusFiles(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
	if _, err := CorpusFiles("/nonexistent"); err == nil {
		t.Error("missing dir accepted")
	}
}

// TestLoadCollectionFiles: AddFile parses an XML file, named by its path;
// a missing or malformed file is an error that names the file and adds
// nothing.
func TestLoadCollectionFiles(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a.xml")
	if err := os.WriteFile(p, []byte(collDocA), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCollection()
	if err := c.AddFile(p); err != nil {
		t.Fatal(err)
	}
	if err := c.AddFile("/missing.xml"); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.xml")
	if err := os.WriteFile(bad, []byte("<a><b></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.AddFile(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("malformed XML: err = %v, want an error naming the file", err)
	}
	if c.Len() != 1 || c.Nodes() == 0 {
		t.Errorf("Len = %d, Nodes = %d", c.Len(), c.Nodes())
	}
	if _, ok := c.Document(p); !ok {
		t.Errorf("%s not loaded under its path; names: %v", p, c.Names())
	}
}

func TestCollectionWithAdvancedOptions(t *testing.T) {
	c := testCollection(t)
	q := MustParseQuery(paperQ1)
	// Hierarchy + keyword-first through the collection path.
	answers, err := c.Search(q, SearchOptions{
		K:         3,
		Scheme:    KeywordFirst,
		Hierarchy: map[string]string{"subsection": "section"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 3 {
		t.Fatalf("answers = %d", len(answers))
	}
	// keyword-first ordering respected across documents.
	for i := 1; i < len(answers); i++ {
		if answers[i].Keyword > answers[i-1].Keyword+1e-9 {
			t.Errorf("keyword-first merge out of order at %d", i)
		}
	}
}

// TestCollectionSearchError: a cold member whose FXP3 file is damaged
// fails the whole search among healthy members, with an error that names
// the member and wraps ErrCorruptSnapshot, never a ranking without it.
func TestCollectionSearchError(t *testing.T) {
	c := testCollection(t)
	defer c.Close() //nolint:errcheck
	doc, err := LoadString(collDocA)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	healthy := filepath.Join(dir, "healthy.fxp3")
	if err := doc.SaveFXP3SnapshotFile(healthy); err != nil {
		t.Fatal(err)
	}
	// A file whose checksums pass but whose tree breaks a column
	// invariant: it opens cold and fails only when a search faults it in.
	secs := fxp3Sections(t, fxp3Bytes(t, doc))
	setI32(treeColumns(secs[1].Data)["level"], 3, 9)
	var buf bytes.Buffer
	if err := fxp3.Write(&buf, secs); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.fxp3")
	if err := os.WriteFile(bad, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{"bad": bad, "healthy": healthy} {
		if err := c.AddSnapshotFile(name, path); err != nil {
			t.Fatal(err)
		}
	}
	_, err = c.Search(MustParseQuery(paperQ1), SearchOptions{K: 3})
	if !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), `document "bad"`) {
		t.Fatalf("err = %v, want ErrCorruptSnapshot naming document \"bad\"", err)
	}
}
