package flexpath

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flexpath/internal/obs"
)

// residencyCorpus writes n FXP3 snapshots of distinct articles documents
// into a temp dir and returns their (name, path) pairs. Each document's
// article ids carry the document number, so rankings across the corpus
// are distinguishable.
func residencyCorpus(t *testing.T, n int) [](struct{ name, path string }) {
	t.Helper()
	dir := t.TempDir()
	out := make([]struct{ name, path string }, n)
	for i := range out {
		xml := strings.ReplaceAll(articlesXML, `id="a`, fmt.Sprintf(`id="d%d-a`, i))
		doc, err := LoadString(xml)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("doc%02d.fxp3", i))
		if err := doc.SaveFXP3SnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		out[i] = struct{ name, path string }{fmt.Sprintf("doc%02d", i), path}
	}
	return out
}

func renderCollectionAnswers(answers []CollectionAnswer) string {
	var b strings.Builder
	for i, a := range answers {
		fmt.Fprintf(&b, "%d|%s|%s|%s|%.9f|%.9f|%d|%q\n",
			i, a.DocName, a.Path, a.ID, a.Structural, a.Keyword, a.Relaxations, a.Snippet(60))
	}
	return b.String()
}

// TestColdCollectionByteIdentity serves a corpus under a residency cap
// far below its size and checks the merged ranking — ids, scores,
// snippets — is identical to an unconstrained in-memory collection.
func TestColdCollectionByteIdentity(t *testing.T) {
	corpus := residencyCorpus(t, 6)
	q := MustParseQuery(paperQ1)
	opts := SearchOptions{K: 20, Algorithm: Hybrid, NoCache: true}

	hot := NewCollection()
	for _, c := range corpus {
		doc, err := LoadFXP3SnapshotFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := hot.Add(c.name, doc); err != nil {
			t.Fatal(err)
		}
	}
	want, err := hot.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference search found nothing")
	}

	cold := NewCollection()
	defer cold.Close() //nolint:errcheck
	for _, c := range corpus {
		if err := cold.AddSnapshotFile(c.name, c.path); err != nil {
			t.Fatal(err)
		}
	}
	cold.SetResidency(2)
	if s := cold.ResidencyStats(); s.Cold != 6 || s.Resident != 0 {
		t.Fatalf("before first search: %+v, want 6 cold", s)
	}

	got, err := cold.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if renderCollectionAnswers(got) != renderCollectionAnswers(want) {
		t.Fatalf("cold ranking differs from in-memory:\n%s\nvs\n%s",
			renderCollectionAnswers(got), renderCollectionAnswers(want))
	}

	s := cold.ResidencyStats()
	if s.Resident > 2 {
		t.Fatalf("residency cap violated: %+v", s)
	}
	if s.Faults != 6 {
		t.Fatalf("faults = %d, want 6 (every document searched)", s.Faults)
	}
	if s.Evictions < 4 {
		t.Fatalf("evictions = %d, want >= 4 under cap 2", s.Evictions)
	}

	// A repeat search re-faults evicted documents and stays identical.
	again, err := cold.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if renderCollectionAnswers(again) != renderCollectionAnswers(want) {
		t.Fatal("ranking drifted across eviction and re-fault")
	}
}

func TestResidencyLRUAndShrink(t *testing.T) {
	corpus := residencyCorpus(t, 3)
	c := NewCollection()
	defer c.Close() //nolint:errcheck
	for _, m := range corpus {
		if err := c.AddSnapshotFile(m.name, m.path); err != nil {
			t.Fatal(err)
		}
	}
	// Unbounded: fault all three in.
	for _, m := range corpus {
		if _, ok := c.Document(m.name); !ok {
			t.Fatalf("document %s not served", m.name)
		}
	}
	if s := c.ResidencyStats(); s.Resident != 3 || s.Faults != 3 {
		t.Fatalf("after faulting all: %+v", s)
	}

	// Shrinking the cap evicts the least recently used members: doc00
	// and doc01 were touched before doc02.
	c.SetResidency(1)
	s := c.ResidencyStats()
	if s.Resident != 1 || s.Evictions != 2 {
		t.Fatalf("after shrink to 1: %+v", s)
	}
	for _, mi := range c.Members() {
		wantResident := mi.Name == "doc02"
		if mi.Resident != wantResident {
			t.Errorf("member %s resident=%v, want %v (LRU should keep the last-used)",
				mi.Name, mi.Resident, wantResident)
		}
		if mi.Pinned {
			t.Errorf("snapshot member %s reported pinned", mi.Name)
		}
		if mi.Nodes <= 0 || mi.SourceBytes <= 0 {
			t.Errorf("member %s missing meta: %+v", mi.Name, mi)
		}
	}

	// Touching an evicted member re-faults it and evicts the resident.
	if _, ok := c.Document("doc00"); !ok {
		t.Fatal("evicted document not re-served")
	}
	s = c.ResidencyStats()
	if s.Resident != 1 || s.Faults != 4 {
		t.Fatalf("after re-fault: %+v", s)
	}
}

func TestResidencyPinnedExempt(t *testing.T) {
	corpus := residencyCorpus(t, 2)
	c := NewCollection()
	defer c.Close() //nolint:errcheck
	pinned, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add("pinned", pinned); err != nil {
		t.Fatal(err)
	}
	for _, m := range corpus {
		if err := c.AddSnapshotFile(m.name, m.path); err != nil {
			t.Fatal(err)
		}
	}
	c.SetResidency(1)
	// Search everything: the pinned member must stay while the snapshot
	// members cycle through the single residency slot.
	if _, err := c.Search(MustParseQuery(paperQ1), SearchOptions{K: 20, Algorithm: Hybrid, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	s := c.ResidencyStats()
	if s.Pinned != 1 || s.Resident > 1 {
		t.Fatalf("stats %+v, want 1 pinned and <= 1 resident", s)
	}
	for _, mi := range c.Members() {
		if mi.Name == "pinned" && (!mi.Resident || !mi.Pinned) {
			t.Fatalf("pinned member demoted: %+v", mi)
		}
	}
}

// TestEvictionKeepsAnswersAlive holds answers from a faulted-in document
// across its eviction: the answer strings alias the snapshot mapping, so
// eviction must drop only decoded heap state, never the mapping.
func TestEvictionKeepsAnswersAlive(t *testing.T) {
	corpus := residencyCorpus(t, 2)
	c := NewCollection()
	defer c.Close() //nolint:errcheck
	for _, m := range corpus {
		if err := c.AddSnapshotFile(m.name, m.path); err != nil {
			t.Fatal(err)
		}
	}
	c.SetResidency(1)
	q := MustParseQuery(paperQ1)
	held, err := c.Search(q, SearchOptions{K: 5, Algorithm: Hybrid, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	before := renderCollectionAnswers(held)

	// Force evictions: cycle the other documents through the slot.
	for i := 0; i < 3; i++ {
		for _, m := range corpus {
			if _, ok := c.Document(m.name); !ok {
				t.Fatal("document lost")
			}
		}
	}
	if s := c.ResidencyStats(); s.Evictions == 0 {
		t.Fatalf("no evictions exercised: %+v", s)
	}
	// The held answers — paths, ids, snippets — must read back
	// unchanged: their backing mapping is still open.
	if after := renderCollectionAnswers(held); after != before {
		t.Fatalf("held answers changed after eviction:\n%s\nvs\n%s", after, before)
	}
}

func TestHasAndMembersDoNotFault(t *testing.T) {
	corpus := residencyCorpus(t, 2)
	c := NewCollection()
	defer c.Close() //nolint:errcheck
	for _, m := range corpus {
		if err := c.AddSnapshotFile(m.name, m.path); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Has("doc00") || c.Has("nope") {
		t.Fatal("Has wrong")
	}
	if n := c.Nodes(); n <= 0 {
		t.Fatalf("Nodes = %d", n)
	}
	if got := len(c.Members()); got != 2 {
		t.Fatalf("Members = %d", got)
	}
	if s := c.ResidencyStats(); s.Resident != 0 || s.Faults != 0 {
		t.Fatalf("status inspection faulted documents in: %+v", s)
	}
}

func TestAddSnapshotFileRejectsDuplicates(t *testing.T) {
	corpus := residencyCorpus(t, 1)
	c := NewCollection()
	defer c.Close() //nolint:errcheck
	if err := c.AddSnapshotFile("dup", corpus[0].path); err != nil {
		t.Fatal(err)
	}
	if err := c.AddSnapshotFile("dup", corpus[0].path); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after rejected duplicate", c.Len())
	}
}

// TestResidencyConcurrentStress hammers a capped collection from many
// goroutines — searches, single-document lookups, cap changes — under
// the race detector. Every search must return the same ranking the
// unconstrained collection does.
func TestResidencyConcurrentStress(t *testing.T) {
	corpus := residencyCorpus(t, 4)
	c := NewCollection()
	defer c.Close() //nolint:errcheck
	ref := NewCollection()
	for _, m := range corpus {
		if err := c.AddSnapshotFile(m.name, m.path); err != nil {
			t.Fatal(err)
		}
		doc, err := LoadFXP3SnapshotFile(m.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Add(m.name, doc); err != nil {
			t.Fatal(err)
		}
	}
	c.SetResidency(1)
	q := MustParseQuery(paperQ1)
	opts := SearchOptions{K: 20, Algorithm: Hybrid, NoCache: true}
	want, err := ref.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantS := renderCollectionAnswers(want)

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				switch rng.Intn(3) {
				case 0:
					got, err := c.SearchContext(context.Background(), q, opts)
					if err != nil {
						errs <- err
						return
					}
					if s := renderCollectionAnswers(got); s != wantS {
						errs <- fmt.Errorf("worker %d iter %d: ranking diverged", w, i)
						return
					}
				case 1:
					name := corpus[rng.Intn(len(corpus))].name
					if _, ok := c.Document(name); !ok {
						errs <- fmt.Errorf("document %s lost", name)
						return
					}
				default:
					c.SetResidency(1 + rng.Intn(2))
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := c.ResidencyStats()
	if s.Faults == 0 || s.Evictions == 0 {
		t.Fatalf("stress did not exercise fault/evict cycling: %+v", s)
	}
	// Members cycled many times over, yet each snapshot's structural
	// validation ran exactly once: a re-fault re-slices, it does not
	// re-check. Every fault decodes the file the member was added with,
	// whose memo runs a check at most once; here it is already spent.
	if s.Faults < 4*uint64(len(corpus)) {
		t.Fatalf("%d faults for %d members: members did not cycle", s.Faults, len(corpus))
	}
	_, members := c.snapshot()
	for _, m := range members {
		if err := m.cold.f.Validated(func() error { return fmt.Errorf("member %s never validated", m.name) }); err != nil {
			t.Fatal(err)
		}
	}
	if s.FaultNanos <= 0 {
		t.Fatalf("faults took no time: %+v", s)
	}
	t.Logf("stress: %+v", s)
}

// TestFaultTimeIsAccounted: the time a search spends faulting members in
// lands in its span's fault stage and in ResidencyStats.FaultNanos, and a
// search that finds every member resident adds to neither.
func TestFaultTimeIsAccounted(t *testing.T) {
	corpus := residencyCorpus(t, 3)
	c := NewCollection()
	defer c.Close() //nolint:errcheck
	for _, m := range corpus {
		if err := c.AddSnapshotFile(m.name, m.path); err != nil {
			t.Fatal(err)
		}
	}
	q := MustParseQuery(paperQ1)
	search := func() time.Duration {
		t.Helper()
		reg := obs.NewRegistry(4, 0)
		span := reg.StartSpan(q.String(), "Hybrid", "structure-first", 5)
		ctx := obs.WithSpan(context.Background(), span)
		if _, err := c.SearchContext(ctx, q, SearchOptions{K: 5, Algorithm: Hybrid, NoCache: true}); err != nil {
			t.Fatal(err)
		}
		span.Finish("ok")
		return reg.SlowLog().Top(1)[0].Stages[obs.StageFault]
	}
	cold := search()
	total := c.ResidencyStats().FaultNanos
	if cold <= 0 || total != int64(cold) {
		t.Fatalf("three faults: span fault stage %v, FaultNanos %d", cold, total)
	}
	if warm := search(); warm != 0 || c.ResidencyStats().FaultNanos != total {
		t.Fatalf("no member was cold: span fault stage %v, FaultNanos %d -> %d", warm, total, c.ResidencyStats().FaultNanos)
	}
}
