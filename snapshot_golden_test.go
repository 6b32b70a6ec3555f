package flexpath

import (
	"flag"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata golden fixtures instead of checking against them")

const goldenSnapshotPath = "testdata/golden_indexed.fxp2"

// TestGoldenIndexedSnapshot pins the legacy FXP2 reader: the checked-in
// fixture was written by a release that still had the encoder, nothing
// can rewrite it (-update-golden does not touch it), and LoadAuto must
// keep reading it byte for byte until the reader is removed with it.
func TestGoldenIndexedSnapshot(t *testing.T) {
	doc, err := LoadAuto(goldenSnapshotPath)
	if err != nil {
		t.Fatalf("cannot read golden snapshot (format broke?): %v", err)
	}
	if doc.Nodes() == 0 {
		t.Fatal("golden snapshot restored an empty document")
	}
	// The restored document must be fully queryable: indexes, statistics
	// and the planner all come off the snapshot path.
	answers, err := doc.Search(MustParseQuery(paperQ1), SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 3 {
		t.Fatalf("answers = %d, want 3", len(answers))
	}
	if answers[0].ID != "a1" || answers[0].Relaxations != 0 {
		t.Errorf("top answer: %+v", answers[0])
	}
	// And it must search identically to a fresh parse of the same XML.
	fresh, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Search(MustParseQuery(paperQ1), SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderAutoRanking(answers), renderAutoRanking(want); got != want {
		t.Errorf("snapshot search differs from fresh parse:\n%s\nvs\n%s", got, want)
	}
}
