package flexpath

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"flexpath/internal/fxp3"
	"flexpath/internal/wal"
)

func durableDoc(i, rev int) []byte {
	return []byte(fmt.Sprintf(
		"<journal><article id='d%d'><section><algorithm>rev%d</algorithm><paragraph>XML streaming methods %d</paragraph></section></article></journal>",
		i, rev, i))
}

// durableDocument parses durableDoc(i, rev).
func durableDocument(i, rev int) *Document {
	d, err := LoadString(string(durableDoc(i, rev)))
	if err != nil {
		panic(err)
	}
	return d
}

// durableStats returns c's durability counters.
func durableStats(t *testing.T, c *Collection) DurableStats {
	t.Helper()
	s, ok := c.DurableStats()
	if !ok {
		t.Fatal("the collection is not durable")
	}
	return s
}

var durableQuery = MustParseQuery(`//article[./section[./paragraph and .contains("XML" and "streaming")]]`)

// searchKey flattens a ranking into a comparable signature. Auto's
// choice depends on its timing-calibrated cost model, so two collections
// may dispatch differently, and DPO attaches no Relaxed detail: the
// signature leaves it out.
func searchKey(t *testing.T, c *Collection) string {
	t.Helper()
	answers, err := c.Search(durableQuery, SearchOptions{K: 50})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	for i := range answers {
		answers[i].Relaxed = nil
	}
	return renderAnswers(answers, 0)
}

func TestDurableRecoverFromLogOnly(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDocument(i, 1)); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	if err := dc.Replace("doc2.xml", durableDocument(2, 2)); err != nil {
		t.Fatalf("replace: %v", err)
	}
	if err := dc.Remove("doc4.xml"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	want := searchKey(t, dc)
	wantNames := dc.Names()
	// No Close: simulate a crash by abandoning the handle (records are
	// durable the moment each mutation returned).
	dc2, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer dc2.Close()
	if s := durableStats(t, dc2); s.ReplayedRecords != 7 {
		t.Fatalf("replayed %d records, want 7", s.ReplayedRecords)
	}
	if got := dc2.Names(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("recovered names %v, want %v", got, wantNames)
	}
	if got := searchKey(t, dc2); got != want {
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
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDocument(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if s := durableStats(t, dc); s.Checkpoints != 1 || s.LogSegments != 1 {
		t.Fatalf("after checkpoint: %+v, want 1 checkpoint and only the active segment", s)
	}
	// Tail mutations after the checkpoint.
	if err := dc.Replace("doc1.xml", durableDocument(1, 9)); err != nil {
		t.Fatal(err)
	}
	if err := dc.Add("doc9.xml", durableDocument(9, 1)); err != nil {
		t.Fatal(err)
	}
	want := searchKey(t, dc)
	// An in-memory rebuild of the same corpus: what recovery must rank
	// like, byte for byte, under every algorithm and scheme.
	rebuilt := NewCollection()
	for _, name := range dc.Names() {
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
	s := durableStats(t, dc2)
	if s.CheckpointLSN == 0 {
		t.Fatal("recovery did not boot from the checkpoint")
	}
	if s.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records, want only the 2 post-checkpoint ones", s.ReplayedRecords)
	}
	if got := searchKey(t, dc2); got != want {
		t.Fatalf("recovered ranking differs:\n%s\nvs\n%s", got, want)
	}
	if got := rankingMatrix(t, dc2); got != wantMatrix {
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
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDocument(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	if n := durableStats(t, dc).Checkpoints; n == 0 {
		t.Fatal("no automatic checkpoint ran")
	}
	want := searchKey(t, dc)
	dc2, err := OpenDurableCollection(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer dc2.Close()
	if got := searchKey(t, dc2); got != want {
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
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDocument(i, 1)); err != nil {
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
	s := durableStats(t, dc2)
	if s.ReplayedRecords != 2 || s.TornBytesTruncated == 0 {
		t.Fatalf("stats = %+v, want 2 replayed with torn bytes counted", s)
	}
	if got := dc2.Names(); !reflect.DeepEqual(got, []string{"doc0.xml", "doc1.xml"}) {
		t.Fatalf("recovered names %v, want the first two docs", got)
	}
}

func TestDurablePreconditionErrors(t *testing.T) {
	dc, err := OpenDurableCollection(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	if err := dc.Add("a.xml", durableDocument(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := dc.Add("a.xml", durableDocument(0, 2)); !errors.Is(err, ErrDocumentExists) {
		t.Fatalf("duplicate add: %v, want ErrDocumentExists", err)
	}
	if err := dc.Replace("missing.xml", durableDocument(1, 1)); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("replace missing: %v, want ErrNoDocument", err)
	}
	if err := dc.Remove("missing.xml"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("remove missing: %v, want ErrNoDocument", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.xml")
	if err := os.WriteFile(bad, []byte("<unclosed"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dc.AddFile(bad); err == nil {
		t.Fatal("malformed XML accepted")
	}
	// Failed mutations must not have been logged: recovery sees one doc.
	appended := durableStats(t, dc).AppendedRecords
	if appended != 1 {
		t.Fatalf("appended %d records, want 1 (failures must not log)", appended)
	}
	// Idempotent variants.
	if err := dc.Upsert("a.xml", durableDocument(0, 3)); err != nil {
		t.Fatalf("upsert existing: %v", err)
	}
	if err := dc.Upsert("b.xml", durableDocument(2, 1)); err != nil {
		t.Fatalf("upsert new: %v", err)
	}
	if removed, err := dc.RemoveIfPresent("b.xml"); err != nil || !removed {
		t.Fatalf("RemoveIfPresent(b) = %v, %v", removed, err)
	}
	if removed, err := dc.RemoveIfPresent("b.xml"); err != nil || removed {
		t.Fatalf("second RemoveIfPresent(b) = %v, %v, want no-op", removed, err)
	}
}

// seedFile adds the corpus file at path unless a member has its name,
// the way flexserve seeds its command-line files, and returns path.
func seedFile(t *testing.T, c *Collection, path string) string {
	t.Helper()
	if !c.Has(path) {
		if err := c.AddFile(path); err != nil {
			t.Fatalf("seeding %s: %v", path, err)
		}
	}
	return path
}

// writeFile writes data to a fresh file name in a temporary directory
// and returns its path.
func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDurableSeedOnlyOnce(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDurableCollection(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seed := seedFile(t, dc, writeFile(t, "seed.xml", durableDoc(0, 1)))
	// Durably mutate the seeded document, then "restart" and re-seed: the
	// mutation must win over the seed file.
	if err := dc.Replace(seed, durableDocument(0, 2)); err != nil {
		t.Fatal(err)
	}
	want := searchKey(t, dc)
	dc.Close()
	dc2, err := OpenDurableCollection(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dc2.Close()
	seedFile(t, dc2, seed)
	if got := searchKey(t, dc2); got != want {
		t.Fatal("re-seeding overwrote a durable mutation")
	}
}

// TestDurableSeedFXP3SurvivesRestart: a seeded FXP3 file joins cold, the
// mapped bytes it logged replay after a crash, and after a checkpoint it
// recovers from its member file, ranking identically.
func TestDurableSeedFXP3SurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	raw := fxp3Bytes(t, durableDocument(7, 1))
	dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	seed := seedFile(t, dc, writeFile(t, "doc.fxp3", raw))
	if rs := dc.ResidencyStats(); rs.Cold != 1 {
		t.Fatalf("residency after seeding %+v, want the FXP3 file cold", rs)
	}
	want := searchKey(t, dc)
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
		seedFile(t, dc, seed)
		if got := searchKey(t, dc); got != want {
			t.Fatalf("checkpointed=%v: recovered ranking differs:\n%s\nvs\n%s", checkpoint, got, want)
		}
	}
}

// TestDurableSnapshotFileVerifiedBeforeLogging: a durable AddFile of an
// FXP3 file whose header and meta section are intact but whose tree
// section is damaged fails with ErrCorruptSnapshot and logs nothing, so
// the directory still opens (a logged record that failed to apply would
// fail every later open).
func TestDurableSnapshotFileVerifiedBeforeLogging(t *testing.T) {
	raw := fxp3Bytes(t, durableDocument(7, 1))
	f, err := fxp3.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := f.Section(fxp3.SectionTree)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Clone(raw)
	raw[bytes.Index(raw, tree)+len(tree)/2] ^= 0xFF
	path := writeFile(t, "damaged.fxp3", raw)

	dir := t.TempDir()
	dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.AddFile(path); !errors.Is(err, ErrCorruptSnapshot) || !strings.Contains(err.Error(), path) {
		t.Fatalf("durable AddFile of a damaged snapshot: %v, want ErrCorruptSnapshot naming the file", err)
	}
	if s := durableStats(t, dc); s.AppendedRecords != 0 || s.LogBytes != 0 {
		t.Fatalf("the refused file was logged: %+v", s)
	}
	if dc.Len() != 0 {
		t.Fatalf("the refused file is a member: %v", dc.Names())
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	dc, err = OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("reopen after the refused file: %v", err)
	}
	defer dc.Close()
	if dc.Len() != 0 {
		t.Fatalf("reopened with %v, want empty", dc.Names())
	}
}

// TestDurableFailedWaitKeepsMapping: when the log fails after a snapshot
// member's record is appended and published — here it is closed inside
// the group-commit window, as a failed fsync poisons it — AddSnapshotFile
// reports the error, but the member stays published with its mapping
// open: a search faults it in, and Close releases the mapping once.
func TestDurableFailedWaitKeepsMapping(t *testing.T) {
	dc, err := OpenDurableCollection(t.TempDir(), DurableOptions{CheckpointEvery: -1, SyncWindow: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, "cold.fxp3", fxp3Bytes(t, durableDocument(7, 1)))
	errc := make(chan error, 1)
	go func() { errc <- dc.AddSnapshotFile("cold.fxp3", path) }()
	for deadline := time.Now().Add(10 * time.Second); durableStats(t, dc).AppendedRecords == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the record was never appended")
		}
		time.Sleep(time.Millisecond)
	}
	if err := dc.dur.log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("AddSnapshotFile with the log closed in its wait: %v, want wal.ErrClosed", err)
	}
	if !dc.Has("cold.fxp3") {
		t.Fatal("the published member is gone")
	}
	if searchKey(t, dc) == "" {
		t.Fatal("the published member does not answer")
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
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
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDocument(i, 0)); err != nil {
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
				if err := dc.Upsert(name, durableDocument(m, r)); err != nil {
					errCh <- fmt.Errorf("mutator %d round %d: %w", m, r, err)
					return
				}
				extra := fmt.Sprintf("extra-%d.xml", m)
				if r%2 == 0 {
					if err := dc.Upsert(extra, durableDocument(100+m, r)); err != nil {
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
			if _, err := dc.Search(durableQuery, SearchOptions{K: 10}); err != nil {
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
	want := searchKey(t, dc)
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	dc2, err := OpenDurableCollection(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer dc2.Close()
	if got := searchKey(t, dc2); got != want {
		t.Fatalf("recovered ranking differs from pre-crash state:\n%s\nvs\n%s", got, want)
	}
}

func TestDurableClosedRejectsMutations(t *testing.T) {
	dc, err := OpenDurableCollection(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Add("a.xml", durableDocument(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dc.Add("b.xml", durableDocument(1, 1)); err == nil {
		t.Fatal("mutation accepted after Close")
	}
	// Searches keep working on the closed collection.
	if _, err := dc.Search(durableQuery, SearchOptions{K: 5}); err != nil {
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
			fmt.Fprintf(&sb, "%v/%v\n%s", algo, scheme, renderAnswers(answers, 40))
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
		if err := dc.Add(name(i), durableDocument(i, 1)); err != nil {
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
		if err := dc.Replace(name(i), durableDocument(i, 2)); err != nil {
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
	if rs := dc.ResidencyStats(); rs.Faults != 0 || rs.Pinned != n {
		t.Fatalf("live residency %+v, want %d pinned and no faults", rs, n)
	}

	// Crash and recover: every member cold, nothing decoded.
	dc2, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer dc2.Close()
	if rs := dc2.ResidencyStats(); rs.Cold != n || rs.Resident != 0 || rs.Pinned != 0 || rs.Faults != 0 {
		t.Fatalf("residency after recovery %+v, want %d cold and no faults", rs, n)
	}
	if s := durableStats(t, dc2); s.ReplayedRecords != 0 || s.CheckpointLSN == 0 {
		t.Fatalf("recovery stats %+v, want the checkpoint and an empty tail", s)
	}
	// Preconditions test membership, not documents: 20 upserts of other
	// names, and every strict verb on a recovered name, fault nothing.
	for i := 0; i < 20; i++ {
		if err := dc2.Upsert(fmt.Sprintf("other%02d.xml", i), durableDocument(100+i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc2.Add(name(5), durableDocument(5, 9)); !errors.Is(err, ErrDocumentExists) {
		t.Fatalf("Add of a recovered name: %v, want ErrDocumentExists", err)
	}
	if !dc2.Has(name(6)) {
		t.Fatalf("Has(%s) = false for a recovered member", name(6))
	}
	if rs := dc2.ResidencyStats(); rs.Faults != 0 || rs.Cold != n {
		t.Fatalf("residency after preconditions %+v, want no faults and %d cold", rs, n)
	}
	for i := 0; i < 20; i++ {
		if removed, err := dc2.RemoveIfPresent(fmt.Sprintf("other%02d.xml", i)); err != nil || !removed {
			t.Fatalf("RemoveIfPresent: %v, %v", removed, err)
		}
	}
	// First searches fault the members in and rank like the rebuild.
	if got, want := rankingMatrix(t, dc2), rankingMatrix(t, ref); got != want {
		t.Fatalf("recovered rankings differ from the in-memory rebuild:\n%s\nvs\n%s", got, want)
	}
	if rs := dc2.ResidencyStats(); rs.Faults != n || rs.Resident != n {
		t.Fatalf("residency after searching %+v, want %d faults", rs, n)
	}
	// A checkpoint of a cold corpus faults nothing.
	if err := dc2.Replace(name(0), durableDocument(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := dc2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if rs := dc2.ResidencyStats(); rs.Faults != n {
		t.Fatalf("residency after a checkpoint %+v, want %d faults", rs, n)
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
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDocument(i, 1)); err != nil {
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
	if err := dc.Replace("doc1.xml", durableDocument(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := dc.Remove("doc4.xml"); err != nil {
		t.Fatal(err)
	}
	if err := dc.Add("doc9.xml", durableDocument(9, 1)); err != nil {
		t.Fatal(err)
	}
	want := rankingMatrix(t, dc)
	wantNames := dc.Names()

	crash := errors.New("killed before the manifest rename")
	dc.dur.beforeManifest = func() error { return crash }
	if err := dc.Checkpoint(); !errors.Is(err, crash) {
		t.Fatalf("checkpoint: %v, want the injected crash", err)
	}
	if s := durableStats(t, dc); s.Checkpoints != 1 || s.CheckpointErrors != 1 {
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
	if err := dc.Upsert("doc0.xml", durableDocument(0, 5)); err != nil {
		t.Fatal(err)
	}
	want2 := rankingMatrix(t, dc)
	if want2 == want {
		t.Fatal("the post-abort upsert does not show in the ranking; the test is blind to it")
	}

	// Abandon the handle: the crash.
	dc2, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer dc2.Close()
	if s := durableStats(t, dc2); s.ReplayedRecords != 4 {
		t.Fatalf("replayed %d records, want the 4 acknowledged after the last manifest", s.ReplayedRecords)
	}
	if got := dc2.Names(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("recovered names %v, want %v", got, wantNames)
	}
	if got := rankingMatrix(t, dc2); got != want2 {
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
	if got := rankingMatrix(t, dc3); got != want2 || durableStats(t, dc3).ReplayedRecords != 0 {
		t.Fatalf("recovery from the retried checkpoint diverged (replayed %d)", durableStats(t, dc3).ReplayedRecords)
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
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDocument(i, 1)); err != nil {
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
			names := dc.Names()
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
	if got := dc.Len(); got != 3 {
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
	if err := dc.Add("a.xml", durableDocument(0, 1)); err != nil {
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
	if _, err := dc2.Search(durableQuery, SearchOptions{K: 5}); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("search over the damaged member: %v, want ErrCorruptSnapshot", err)
	}
	if err := dc2.Add("a.xml", durableDocument(0, 2)); !errors.Is(err, ErrDocumentExists) {
		t.Fatalf("Add over the damaged member: %v, want ErrDocumentExists", err)
	}
	if n := durableStats(t, dc2).AppendedRecords; n != 0 {
		t.Fatalf("the refused Add was logged (%d records)", n)
	}
	if err := dc2.Replace("a.xml", durableDocument(0, 2)); err != nil {
		t.Fatalf("Replace of the damaged member: %v", err)
	}
	if searchKey(t, dc2) == "" {
		t.Fatal("the replaced member does not answer")
	}
}

// fxp3Of returns each member's FXP3 snapshot bytes by name.
func fxp3Of(t *testing.T, c *Collection) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range c.Names() {
		d, ok := c.Document(name)
		if !ok {
			t.Fatalf("member %s does not load", name)
		}
		out[name] = fxp3Bytes(t, d)
	}
	return out
}

// copyDir copies the regular files of src into a fresh temporary
// directory and returns it: the image of src a crash would leave.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestDurableCollectionVerbs: a durable collection's own verbs are
// durable — Add, Replace, AddSnapshotFile of an FXP3 file no search has
// faulted in, and Remove — so a reopen from the log alone, and again
// after a checkpoint that writes the cold member from its mapping, gives
// the same names in the same order and every member the same FXP3 bytes.
func TestDurableCollectionVerbs(t *testing.T) {
	dir := t.TempDir()
	dc, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := dc.Add(fmt.Sprintf("doc%d.xml", i), durableDocument(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.Replace("doc1.xml", durableDocument(1, 2)); err != nil {
		t.Fatal(err)
	}
	cold := fxp3Bytes(t, durableDocument(5, 1))
	if err := dc.AddSnapshotFile("cold.fxp3", writeFile(t, "cold.fxp3", cold)); err != nil {
		t.Fatal(err)
	}
	if err := dc.Remove("doc0.xml"); err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"doc1.xml", "doc2.xml", "cold.fxp3"}
	want := map[string][]byte{
		"doc1.xml":  fxp3Bytes(t, durableDocument(1, 2)),
		"doc2.xml":  fxp3Bytes(t, durableDocument(2, 1)),
		"cold.fxp3": cold,
	}
	check := func(when string, c *Collection, replayed uint64) {
		t.Helper()
		if got := c.Names(); !reflect.DeepEqual(got, wantNames) {
			t.Fatalf("%s: names %v, want %v", when, got, wantNames)
		}
		if s := durableStats(t, c); s.ReplayedRecords != replayed {
			t.Fatalf("%s: replayed %d records, want %d", when, s.ReplayedRecords, replayed)
		}
		for name, b := range fxp3Of(t, c) {
			if !bytes.Equal(b, want[name]) {
				t.Errorf("%s: %s recovered with other FXP3 bytes", when, name)
			}
		}
	}

	// A crash image before any checkpoint: everything replays.
	logOnly, err := OpenDurableCollection(copyDir(t, dir), DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer logOnly.Close()
	check("from the log", logOnly, 6)

	if err := dc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if rs := dc.ResidencyStats(); rs.Cold != 1 || rs.Faults != 0 {
		t.Fatalf("residency after the checkpoint %+v, want the snapshot member cold and never faulted", rs)
	}
	// No Close: a crash.
	fromCkpt, err := OpenDurableCollection(dir, DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fromCkpt.Close()
	check("from the checkpoint", fromCkpt, 0)
	check("before the restart", dc, 0)
}

// TestDurableRecoversXMLRecords: logs whose records hold XML — every log
// written before records held FXP3 — still recover. The fixture
// testdata/wal-xml-records was written by OpenDurableCollection at the
// commit before that change (a git archive of it), through its byte
// verbs: Add doc0..doc2.xml as durableDoc(i, 1), Checkpoint, Replace
// doc1.xml with durableDoc(1, 2), Add doc3.xml as durableDoc(3, 1),
// Remove doc0.xml, Close. So it holds a manifest with three members and
// a log of three XML records.
func TestDurableRecoversXMLRecords(t *testing.T) {
	dc, err := OpenDurableCollection(copyDir(t, filepath.Join("testdata", "wal-xml-records")), DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	if s := durableStats(t, dc); s.ReplayedRecords != 3 || s.CheckpointLSN == 0 {
		t.Fatalf("recovery stats %+v, want the checkpoint and 3 replayed records", s)
	}
	wantNames := []string{"doc1.xml", "doc2.xml", "doc3.xml"}
	if got := dc.Names(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("names %v, want %v", got, wantNames)
	}
	want := map[string][]byte{
		"doc1.xml": fxp3Bytes(t, durableDocument(1, 2)),
		"doc2.xml": fxp3Bytes(t, durableDocument(2, 1)),
		"doc3.xml": fxp3Bytes(t, durableDocument(3, 1)),
	}
	for name, b := range fxp3Of(t, dc) {
		if !bytes.Equal(b, want[name]) {
			t.Errorf("%s recovered with other FXP3 bytes", name)
		}
	}
}
