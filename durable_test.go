package flexpath

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func durableDoc(i, rev int) []byte {
	return []byte(fmt.Sprintf(
		"<journal><article id='d%d'><section><algorithm>rev%d</algorithm><paragraph>XML streaming methods %d</paragraph></section></article></journal>",
		i, rev, i))
}

var durableQuery = MustParseQuery(`//article[./section[./paragraph and .contains("XML" and "streaming")]]`)

// searchKey flattens a ranking into a comparable signature.
func searchKey(t *testing.T, c *Collection) string {
	t.Helper()
	answers, err := c.Search(durableQuery, SearchOptions{K: 50})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	var sb strings.Builder
	for _, a := range answers {
		fmt.Fprintf(&sb, "%s|%s|%g|%g|%d\n", a.DocName, a.Path, a.Structural, a.Keyword, a.Relaxations)
	}
	return sb.String()
}

func TestDurableRecoverFromLogOnly(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDoc(i, 1)); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	if err := dc.Replace("doc2.xml", durableDoc(2, 2)); err != nil {
		t.Fatalf("replace: %v", err)
	}
	if err := dc.Remove("doc4.xml"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	want := searchKey(t, dc.Collection())
	wantNames := dc.Collection().Names()
	// No Close: simulate a crash by abandoning the handle (records are
	// durable the moment each mutation returned).
	dc2, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer dc2.Close()
	if s := dc2.Stats(); s.ReplayedRecords != 7 {
		t.Fatalf("replayed %d records, want 7", s.ReplayedRecords)
	}
	if got := dc2.Collection().Names(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("recovered names %v, want %v", got, wantNames)
	}
	if got := searchKey(t, dc2.Collection()); got != want {
		t.Fatalf("recovered ranking differs:\n%s\nvs\n%s", got, want)
	}
}

func TestDurableRecoverFromCheckpointAndTail(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDoc(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if s := dc.Stats(); s.Checkpoints != 1 || s.LogSegments != 1 {
		t.Fatalf("after checkpoint: %+v, want 1 checkpoint and only the active segment", s)
	}
	// Tail mutations after the checkpoint.
	if err := dc.Replace("doc1.xml", durableDoc(1, 9)); err != nil {
		t.Fatal(err)
	}
	if err := dc.Add("doc9.xml", durableDoc(9, 1)); err != nil {
		t.Fatal(err)
	}
	want := searchKey(t, dc.Collection())
	// An in-memory rebuild of the same corpus: what recovery must rank
	// like, byte for byte, under every algorithm and scheme.
	rebuilt := NewCollection()
	for _, name := range dc.Collection().Names() {
		var i, rev int
		fmt.Sscanf(name, "doc%d.xml", &i) //nolint:errcheck
		if rev = 1; i == 1 {
			rev = 9
		}
		d, err := LoadString(string(durableDoc(i, rev)))
		if err != nil {
			t.Fatal(err)
		}
		if err := rebuilt.Add(name, d); err != nil {
			t.Fatal(err)
		}
	}
	wantMatrix := rankingMatrix(t, rebuilt)

	dc2, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer dc2.Close()
	s := dc2.Stats()
	if s.CheckpointLSN == 0 {
		t.Fatal("recovery did not boot from the checkpoint")
	}
	if s.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records, want only the 2 post-checkpoint ones", s.ReplayedRecords)
	}
	if got := searchKey(t, dc2.Collection()); got != want {
		t.Fatalf("recovered ranking differs:\n%s\nvs\n%s", got, want)
	}
	if got := rankingMatrix(t, dc2.Collection()); got != wantMatrix {
		t.Fatalf("manifest recovery ranks differently from an in-memory rebuild:\n%s\nvs\n%s", got, wantMatrix)
	}
}

func TestDurableAutomaticCheckpointAndPrune(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDoc(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	if n := dc.Stats().Checkpoints; n == 0 {
		t.Fatal("no automatic checkpoint ran")
	}
	want := searchKey(t, dc.Collection())
	dc2, err := OpenDurableCollection(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer dc2.Close()
	if got := searchKey(t, dc2.Collection()); got != want {
		t.Fatal("recovered ranking differs after automatic checkpoints")
	}
}

func TestDurableTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDoc(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	dc.Close()
	// Chop bytes off the single segment's tail: the last record becomes
	// torn, recovery must keep the first two documents.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			seg = filepath.Join(dir, e.Name())
		}
	}
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	dc2, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	defer dc2.Close()
	s := dc2.Stats()
	if s.ReplayedRecords != 2 || s.TornBytesTruncated == 0 {
		t.Fatalf("stats = %+v, want 2 replayed with torn bytes counted", s)
	}
	if got := dc2.Collection().Names(); !reflect.DeepEqual(got, []string{"doc0.xml", "doc1.xml"}) {
		t.Fatalf("recovered names %v, want the first two docs", got)
	}
}

func TestDurablePreconditionErrors(t *testing.T) {
	dc, err := OpenDurableCollection(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	if err := dc.Add("a.xml", durableDoc(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := dc.Add("a.xml", durableDoc(0, 2)); !errors.Is(err, ErrDocumentExists) {
		t.Fatalf("duplicate add: %v, want ErrDocumentExists", err)
	}
	if err := dc.Replace("missing.xml", durableDoc(1, 1)); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("replace missing: %v, want ErrNoDocument", err)
	}
	if err := dc.Remove("missing.xml"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("remove missing: %v, want ErrNoDocument", err)
	}
	if err := dc.Add("bad.xml", []byte("<unclosed")); err == nil {
		t.Fatal("malformed XML accepted")
	}
	// Failed mutations must not have been logged: recovery sees one doc.
	appended := dc.Stats().AppendedRecords
	if appended != 1 {
		t.Fatalf("appended %d records, want 1 (failures must not log)", appended)
	}
	// Idempotent variants.
	if err := dc.Upsert("a.xml", durableDoc(0, 3)); err != nil {
		t.Fatalf("upsert existing: %v", err)
	}
	if err := dc.Upsert("b.xml", durableDoc(2, 1)); err != nil {
		t.Fatalf("upsert new: %v", err)
	}
	if removed, err := dc.RemoveIfPresent("b.xml"); err != nil || !removed {
		t.Fatalf("RemoveIfPresent(b) = %v, %v", removed, err)
	}
	if removed, err := dc.RemoveIfPresent("b.xml"); err != nil || removed {
		t.Fatalf("second RemoveIfPresent(b) = %v, %v, want no-op", removed, err)
	}
}

func TestDurableSeedOnlyOnce(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDurableCollection(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Seed("seed.xml", durableDoc(0, 1)); err != nil {
		t.Fatal(err)
	}
	// Durably mutate the seeded document, then "restart" and re-seed: the
	// mutation must win over the seed file.
	if err := dc.Replace("seed.xml", durableDoc(0, 2)); err != nil {
		t.Fatal(err)
	}
	want := searchKey(t, dc.Collection())
	dc.Close()
	dc2, err := OpenDurableCollection(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dc2.Close()
	if err := dc2.Seed("seed.xml", durableDoc(0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := searchKey(t, dc2.Collection()); got != want {
		t.Fatal("re-seeding overwrote a durable mutation")
	}
	// Seeding a binary snapshot works too (magic-routed): the legacy FXP2
	// fixture goes through the read-only loader.
	if err := dc2.Seed("snap.fxp2", goldenFXP2(t)); err != nil {
		t.Fatalf("seeding snapshot bytes: %v", err)
	}
	if !dc2.Collection().Has("snap.fxp2") {
		t.Fatal("snapshot seed not added")
	}
	// A plain FXT1 tree is a bad document, not an XML parse error.
	err = dc2.Seed("tree.fxt", fxp2Sections(t, goldenFXP2(t))[0])
	if !errors.Is(err, ErrBadDocument) || !errors.Is(err, ErrLegacySnapshot) {
		t.Fatalf("seeding an FXT1 tree: %v, want ErrBadDocument wrapping ErrLegacySnapshot", err)
	}
}

// TestDurableSeedFXP3SurvivesRestart: a seeded FXP3 file is routed to the
// FXP3 loader (it used to reach the XML parser and die as a bad
// document), its bytes replay from the log after a crash, and after a
// checkpoint it recovers from its member file, ranking identically.
func TestDurableSeedFXP3SurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	doc, err := LoadString(string(durableDoc(7, 1)))
	if err != nil {
		t.Fatal(err)
	}
	raw := fxp3Bytes(t, doc)
	dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Seed("corpus/doc.fxp3", raw); err != nil {
		t.Fatalf("seeding FXP3 bytes: %v", err)
	}
	want := searchKey(t, dc.Collection())
	if want == "" {
		t.Fatal("seeded document does not answer the query")
	}
	for _, checkpoint := range []bool{false, true} {
		if checkpoint {
			if err := dc.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		// No Close: a crash.
		dc, err = OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
		if err != nil {
			t.Fatalf("recover (checkpointed=%v): %v", checkpoint, err)
		}
		defer dc.Close()
		if err := dc.Seed("corpus/doc.fxp3", raw); err != nil {
			t.Fatal(err)
		}
		if got := searchKey(t, dc.Collection()); got != want {
			t.Fatalf("checkpointed=%v: recovered ranking differs:\n%s\nvs\n%s", checkpoint, got, want)
		}
	}
}

// TestDurableMutateWhileCheckpointing is the -race stress test: searches,
// mutations and forced checkpoints all running concurrently, then a
// recovery that must land on exactly the final acknowledged state.
func TestDurableMutateWhileCheckpointing(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: 5, SyncWindow: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDoc(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	const (
		mutators = 4
		rounds   = 25
	)
	var wg sync.WaitGroup
	errCh := make(chan error, mutators+2)
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				name := fmt.Sprintf("doc%d.xml", m)
				if err := dc.Upsert(name, durableDoc(m, r)); err != nil {
					errCh <- fmt.Errorf("mutator %d round %d: %w", m, r, err)
					return
				}
				extra := fmt.Sprintf("extra-%d.xml", m)
				if r%2 == 0 {
					if err := dc.Upsert(extra, durableDoc(100+m, r)); err != nil {
						errCh <- err
						return
					}
				} else {
					if _, err := dc.RemoveIfPresent(extra); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(m)
	}
	wg.Add(1)
	go func() { // searches racing the mutations
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := dc.Collection().Search(durableQuery, SearchOptions{K: 10}); err != nil {
				errCh <- fmt.Errorf("search: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // explicit checkpoints racing the automatic ones
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := dc.Checkpoint(); err != nil {
				errCh <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	want := searchKey(t, dc.Collection())
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	dc2, err := OpenDurableCollection(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer dc2.Close()
	if got := searchKey(t, dc2.Collection()); got != want {
		t.Fatalf("recovered ranking differs from pre-crash state:\n%s\nvs\n%s", got, want)
	}
}

func TestDurableClosedRejectsMutations(t *testing.T) {
	dc, err := OpenDurableCollection(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Add("a.xml", durableDoc(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dc.Add("b.xml", durableDoc(1, 1)); err == nil {
		t.Fatal("mutation accepted after Close")
	}
	// Searches keep working on the closed collection.
	if _, err := dc.Collection().Search(durableQuery, SearchOptions{K: 5}); err != nil {
		t.Fatalf("search after close: %v", err)
	}
}

// rankingMatrix renders the collection's ranking for the durable query
// under DPO/SSO/Hybrid x the three schemes, scores as bit patterns, so
// two corpora compare byte for byte.
func rankingMatrix(t *testing.T, c *Collection) string {
	t.Helper()
	var sb strings.Builder
	for _, algo := range []Algorithm{DPO, SSO, Hybrid} {
		for _, scheme := range []Scheme{StructureFirst, KeywordFirst, Combined} {
			answers, err := c.Search(durableQuery, SearchOptions{K: 50, Algorithm: algo, Scheme: scheme, NoCache: true})
			if err != nil {
				t.Fatalf("%v/%v: %v", algo, scheme, err)
			}
			fmt.Fprintf(&sb, "%v/%v\n", algo, scheme)
			for _, a := range answers {
				fmt.Fprintf(&sb, "%s|%s|%x|%x|%d|%q\n", a.DocName, a.Path,
					math.Float64bits(a.Structural), math.Float64bits(a.Keyword), a.Relaxations, a.Snippet(40))
			}
		}
	}
	return sb.String()
}

// memberFiles lists the member files in a WAL directory.
func memberFiles(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]os.FileInfo{}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "member-") {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = fi
		}
	}
	return files
}

// TestCheckpointIncrementalAndRecoveryCold: a checkpoint after 3 of 24
// members changed writes exactly 3 member files and leaves the other 21
// files alone; recovery adds all 24 cold without a fault; durable
// preconditions keep it that way; and the first searches fault them in
// and rank byte-identically to an in-memory rebuild.
func TestCheckpointIncrementalAndRecoveryCold(t *testing.T) {
	const n = 24
	dir := t.TempDir()
	dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewCollection() // the same corpus, never persisted
	name := func(i int) string { return fmt.Sprintf("doc%02d.xml", i) }
	for i := 0; i < n; i++ {
		if err := dc.Add(name(i), durableDoc(i, 1)); err != nil {
			t.Fatal(err)
		}
		d, _ := LoadString(string(durableDoc(i, 1)))
		ref.Add(name(i), d) //nolint:errcheck
	}
	if err := dc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first := memberFiles(t, dir)
	if len(first) != n {
		t.Fatalf("first checkpoint wrote %d member files, want %d", len(first), n)
	}
	for _, i := range []int{3, 11, 17} {
		if err := dc.Replace(name(i), durableDoc(i, 2)); err != nil {
			t.Fatal(err)
		}
		d, _ := LoadString(string(durableDoc(i, 2)))
		ref.Replace(name(i), d) //nolint:errcheck
	}
	if err := dc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	second := memberFiles(t, dir)
	if len(second) != n {
		t.Fatalf("after the second checkpoint the directory holds %d member files, want %d (replaced ones unlinked)", len(second), n)
	}
	fresh := 0
	for f, fi := range second {
		if old, ok := first[f]; !ok {
			fresh++
		} else if !os.SameFile(old, fi) || !old.ModTime().Equal(fi.ModTime()) {
			t.Errorf("%s was rewritten though its member did not change", f)
		}
	}
	if fresh != 3 {
		t.Fatalf("second checkpoint wrote %d new member files, want 3", fresh)
	}
	// A checkpoint with nothing changed writes no member file at all.
	if err := dc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if third := memberFiles(t, dir); !reflect.DeepEqual(keys(third), keys(second)) {
		t.Fatalf("idle checkpoint changed the member files: %v vs %v", keys(third), keys(second))
	}
	// The live collection never faulted: its members are all pinned.
	if rs := dc.Collection().ResidencyStats(); rs.Faults != 0 || rs.Pinned != n {
		t.Fatalf("live residency %+v, want %d pinned and no faults", rs, n)
	}

	// Crash and recover: every member cold, nothing decoded.
	dc2, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer dc2.Close()
	if rs := dc2.Collection().ResidencyStats(); rs.Cold != n || rs.Resident != 0 || rs.Pinned != 0 || rs.Faults != 0 {
		t.Fatalf("residency after recovery %+v, want %d cold and no faults", rs, n)
	}
	if s := dc2.Stats(); s.ReplayedRecords != 0 || s.CheckpointLSN == 0 {
		t.Fatalf("recovery stats %+v, want the checkpoint and an empty tail", s)
	}
	// Preconditions test membership, not documents: 20 upserts of other
	// names, and every strict verb on a recovered name, fault nothing.
	for i := 0; i < 20; i++ {
		if err := dc2.Upsert(fmt.Sprintf("other%02d.xml", i), durableDoc(100+i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc2.Add(name(5), durableDoc(5, 9)); !errors.Is(err, ErrDocumentExists) {
		t.Fatalf("Add of a recovered name: %v, want ErrDocumentExists", err)
	}
	if err := dc2.Seed(name(6), durableDoc(6, 9)); err != nil {
		t.Fatal(err)
	}
	if rs := dc2.Collection().ResidencyStats(); rs.Faults != 0 || rs.Cold != n {
		t.Fatalf("residency after preconditions %+v, want no faults and %d cold", rs, n)
	}
	for i := 0; i < 20; i++ {
		if removed, err := dc2.RemoveIfPresent(fmt.Sprintf("other%02d.xml", i)); err != nil || !removed {
			t.Fatalf("RemoveIfPresent: %v, %v", removed, err)
		}
	}
	// First searches fault the members in and rank like the rebuild.
	if got, want := rankingMatrix(t, dc2.Collection()), rankingMatrix(t, ref); got != want {
		t.Fatalf("recovered rankings differ from the in-memory rebuild:\n%s\nvs\n%s", got, want)
	}
	if rs := dc2.Collection().ResidencyStats(); rs.Faults != n || rs.Resident != n {
		t.Fatalf("residency after searching %+v, want %d faults", rs, n)
	}
	// The recovered members obey the residency cap (-wal composes with
	// -resident-docs), and a checkpoint of a cold corpus faults nothing.
	dc2.Collection().SetResidency(4)
	faults := dc2.Collection().ResidencyStats().Faults
	if err := dc2.Replace(name(0), durableDoc(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := dc2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if rs := dc2.Collection().ResidencyStats(); rs.Resident > 4 || rs.Faults != faults {
		t.Fatalf("residency after a capped checkpoint %+v, want <= 4 resident and %d faults", rs, faults)
	}
}

func keys(m map[string]os.FileInfo) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestDurableCrashBeforeManifestRename stops a checkpoint after its
// member files are durable and before the manifest is replaced — the
// widest crash window there is. Recovery must land on the previous
// manifest plus the whole WAL tail, exactly, and sweep the orphans.
func TestDurableCrashBeforeManifestRename(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDoc(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := memberFiles(t, dir)
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	// The tail: a replace, a remove and an add the old manifest knows
	// nothing about.
	if err := dc.Replace("doc1.xml", durableDoc(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := dc.Remove("doc4.xml"); err != nil {
		t.Fatal(err)
	}
	if err := dc.Add("doc9.xml", durableDoc(9, 1)); err != nil {
		t.Fatal(err)
	}
	want := rankingMatrix(t, dc.Collection())
	wantNames := dc.Collection().Names()

	crash := errors.New("killed before the manifest rename")
	dc.beforeManifest = func() error { return crash }
	if err := dc.Checkpoint(); !errors.Is(err, crash) {
		t.Fatalf("checkpoint: %v, want the injected crash", err)
	}
	if s := dc.Stats(); s.Checkpoints != 1 || s.CheckpointErrors != 1 {
		t.Fatalf("stats after the aborted checkpoint: %+v", s)
	}
	orphans := 0
	for f := range memberFiles(t, dir) {
		if _, ok := before[f]; !ok {
			orphans++
		}
	}
	if orphans != 2 {
		t.Fatalf("aborted checkpoint left %d new member files, want 2 (the replaced and the added member)", orphans)
	}
	if now, _ := os.ReadFile(filepath.Join(dir, "MANIFEST")); !bytes.Equal(now, manifest) {
		t.Fatal("the manifest changed though the checkpoint never reached its rename")
	}
	// A mutation acknowledged after the aborted checkpoint is in the new
	// active segment; it must survive too.
	if err := dc.Upsert("doc0.xml", durableDoc(0, 5)); err != nil {
		t.Fatal(err)
	}
	want2 := rankingMatrix(t, dc.Collection())
	if want2 == want {
		t.Fatal("the post-abort upsert does not show in the ranking; the test is blind to it")
	}

	// Abandon the handle: the crash.
	dc2, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer dc2.Close()
	if s := dc2.Stats(); s.ReplayedRecords != 4 {
		t.Fatalf("replayed %d records, want the 4 acknowledged after the last manifest", s.ReplayedRecords)
	}
	if got := dc2.Collection().Names(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("recovered names %v, want %v", got, wantNames)
	}
	if got := rankingMatrix(t, dc2.Collection()); got != want2 {
		t.Fatalf("recovered rankings differ from the acknowledged state:\n%s\nvs\n%s", got, want2)
	}
	if after := memberFiles(t, dir); !reflect.DeepEqual(keys(after), keys(before)) {
		t.Fatalf("recovery left %v, want exactly the manifest's files %v", keys(after), keys(before))
	}
	// The next checkpoint succeeds and recovery from it agrees again.
	if err := dc2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dc3, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dc3.Close()
	if got := rankingMatrix(t, dc3.Collection()); got != want2 || dc3.Stats().ReplayedRecords != 0 {
		t.Fatalf("recovery from the retried checkpoint diverged (replayed %d)", dc3.Stats().ReplayedRecords)
	}
}

// TestDurableDamagedCheckpointIsAnError: whatever is wrong with a
// checkpoint — the manifest cut at any offset or with any byte flipped,
// a member file missing or damaged, a container from an older release —
// OpenDurableCollection fails with a typed error. It never resolves to
// an empty or older corpus: the log the checkpoint covered is pruned.
func TestDurableDamagedCheckpointIsAnError(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDoc(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, "MANIFEST")
	manifest, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	mustFail := func(what string, sentinel error) {
		t.Helper()
		dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
		if err == nil {
			names := dc.Collection().Names()
			dc.Close()
			t.Fatalf("%s: opened with documents %v", what, names)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("%s: err = %v, want %v", what, err, sentinel)
		}
	}
	for n := 0; n < len(manifest); n++ {
		if err := os.WriteFile(manifestPath, manifest[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		mustFail(fmt.Sprintf("manifest cut at %d/%d", n, len(manifest)), ErrCorruptSnapshot)
	}
	for i := range manifest {
		bad := bytes.Clone(manifest)
		bad[i] ^= 0x40
		if err := os.WriteFile(manifestPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		mustFail(fmt.Sprintf("manifest byte %d flipped", i), ErrCorruptSnapshot)
	}
	if err := os.WriteFile(manifestPath, manifest, 0o644); err != nil {
		t.Fatal(err)
	}

	var member string
	for f := range memberFiles(t, dir) {
		member = filepath.Join(dir, f)
		break
	}
	good, err := os.ReadFile(member)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(member); err != nil {
		t.Fatal(err)
	}
	mustFail("member file missing", ErrCorruptSnapshot)
	if err := os.WriteFile(member, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	mustFail("member file truncated", ErrCorruptSnapshot)
	if err := os.WriteFile(member, good, 0o644); err != nil {
		t.Fatal(err)
	}

	legacy := filepath.Join(dir, "checkpoint-0000000000000003.fxpc")
	if err := os.WriteFile(legacy, []byte("FXPC"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustFail("legacy checkpoint container", ErrLegacyCheckpoint)
	if err := os.Remove(legacy); err != nil {
		t.Fatal(err)
	}

	// Everything restored: the directory opens again, whole.
	dc, err = OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("restored directory: %v", err)
	}
	defer dc.Close()
	if got := dc.Collection().Len(); got != 3 {
		t.Fatalf("restored directory holds %d documents, want 3", got)
	}
}

// TestDurablePreconditionOnUnfaultableMember: a recovered member whose
// sections are damaged past the header opens cold and fails its first
// fault with ErrCorruptSnapshot. It is still a member: Add over it is
// ErrDocumentExists and is not logged (it used to read as absent, get
// logged, and then fail to apply), and Replace repairs it.
func TestDurablePreconditionOnUnfaultableMember(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Add("a.xml", durableDoc(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := dc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dc.Close()
	for f := range memberFiles(t, dir) {
		path := filepath.Join(dir, f)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-9] ^= 0xFF // inside the last section's payload
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dc2, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("a member damaged past its header must open cold: %v", err)
	}
	defer dc2.Close()
	if _, err := dc2.Collection().Search(durableQuery, SearchOptions{K: 5}); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("search over the damaged member: %v, want ErrCorruptSnapshot", err)
	}
	if err := dc2.Add("a.xml", durableDoc(0, 2)); !errors.Is(err, ErrDocumentExists) {
		t.Fatalf("Add over the damaged member: %v, want ErrDocumentExists", err)
	}
	if n := dc2.Stats().AppendedRecords; n != 0 {
		t.Fatalf("the refused Add was logged (%d records)", n)
	}
	if err := dc2.Replace("a.xml", durableDoc(0, 2)); err != nil {
		t.Fatalf("Replace of the damaged member: %v", err)
	}
	if searchKey(t, dc2.Collection()) == "" {
		t.Fatal("the replaced member does not answer")
	}
}
