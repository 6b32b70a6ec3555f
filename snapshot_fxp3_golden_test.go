package flexpath

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"flexpath/internal/xmark"
)

// The FXP3 fixtures pin the column layout from both sides: saving the
// seeded document must reproduce the checked-in bytes, and loading the
// checked-in bytes must reproduce the checked-in rankings (score bits
// and snippets). They were written, with -update-golden, at the last
// commit whose in-memory form was still per-node strings and lookup
// maps, so a representation change that alters either direction fails
// here. A layout change needs a new container version, not a refresh.
const goldenFXP3Rankings = "testdata/golden_fxp3_rankings.json"

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata golden fixtures instead of checking against them")

var goldenFXP3Fixtures = []struct {
	path string
	opt  DocumentOptions
}{
	{"testdata/golden.fxp3", DocumentOptions{}},
	{"testdata/golden_bm25.fxp3", DocumentOptions{BM25: true}},
}

var goldenFXP3Queries = []string{
	`//item[./name and ./description[.contains("vintage" or "walnut")]]`,
	`//item[./description/parlist and .contains("gold" and "rare")]`,
	`//listitem[./text[.contains("silver")]]`,
	`//open_auction[./bidder/date and ./annotation/description[.contains("vintage" or "walnut")]]`,
	`//item[./description/parlist and ./mailbox/mail/text]`,
}

type goldenFXP3Answer struct {
	Node    int    `json:"node"`
	SS      string `json:"ss"`
	KS      string `json:"ks"`
	Level   int    `json:"level"`
	Snippet string `json:"snippet"`
}

// goldenFXP3Rank searches every golden query under every scheme with
// the algorithm pinned, so the rankings do not depend on the planner.
func goldenFXP3Rank(t *testing.T, doc *Document) map[string][]goldenFXP3Answer {
	t.Helper()
	out := map[string][]goldenFXP3Answer{}
	for _, src := range goldenFXP3Queries {
		for _, scheme := range []Scheme{StructureFirst, KeywordFirst, Combined} {
			as, err := doc.Search(MustParseQuery(src), SearchOptions{K: 10, Scheme: scheme, Algorithm: Hybrid, NoCache: true})
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			list := []goldenFXP3Answer{}
			for _, a := range as {
				list = append(list, goldenFXP3Answer{
					Node: int(a.node), SS: f64bits(a.Structural), KS: f64bits(a.Keyword),
					Level: a.Relaxations, Snippet: a.Snippet(60),
				})
			}
			out[scheme.String()+" "+src] = list
		}
	}
	return out
}

func TestGoldenFXP3Snapshot(t *testing.T) {
	want := map[string]map[string][]goldenFXP3Answer{}
	if !*updateGolden {
		b, err := os.ReadFile(goldenFXP3Rankings)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
	}
	for _, fx := range goldenFXP3Fixtures {
		tree, err := xmark.Build(xmark.Config{TargetBytes: 64 << 10, Seed: 20040613})
		if err != nil {
			t.Fatal(err)
		}
		saved := fxp3Bytes(t, newDocument(tree, fx.opt))
		if *updateGolden {
			if err := os.WriteFile(fx.path, saved, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fixture, err := os.ReadFile(fx.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, fixture) {
			t.Errorf("%s: saving the seeded document wrote %d bytes that differ from the %d-byte fixture",
				fx.path, len(saved), len(fixture))
		}
		loaded, err := LoadFXP3SnapshotFile(fx.path)
		if err != nil {
			t.Fatalf("%s: %v", fx.path, err)
		}
		t.Cleanup(func() { loaded.Close() }) //nolint:errcheck
		got := goldenFXP3Rank(t, loaded)
		// A loaded fixture saves back to itself: nothing is lost or
		// reordered between the columns and the accessors.
		if !bytes.Equal(fxp3Bytes(t, loaded), fixture) {
			t.Errorf("%s: re-saving the loaded fixture changed its bytes", fx.path)
		}
		if *updateGolden {
			want[fx.path] = got
			continue
		}
		for key, w := range want[fx.path] {
			if !reflect.DeepEqual(w, got[key]) {
				t.Errorf("%s: %s:\n got %+v\nwant %+v", fx.path, key, got[key], w)
			}
		}
		if len(got) != len(want[fx.path]) {
			t.Errorf("%s: %d rankings, fixture has %d", fx.path, len(got), len(want[fx.path]))
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(want, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFXP3Rankings, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
