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
	if renderAnswers(got, 60) != renderAnswers(want, 60) {
		t.Fatalf("cold ranking differs from in-memory:\n%s\nvs\n%s",
			renderAnswers(got, 60), renderAnswers(want, 60))
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
	if renderAnswers(again, 60) != renderAnswers(want, 60) {
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

// TestSearchResidencyIndependentOfWorkers: a search stamps its members
// in index order whichever worker loads them first, so with two workers
// under a cap of two the last two members stay resident after every
// search and the next search faults every member in again. (With more
// workers than the cap, a member can legitimately be found resident.)
func TestSearchResidencyIndependentOfWorkers(t *testing.T) {
	corpus := residencyCorpus(t, 4)
	c := NewCollection()
	defer c.Close() //nolint:errcheck
	for _, m := range corpus {
		if err := c.AddSnapshotFile(m.name, m.path); err != nil {
			t.Fatal(err)
		}
	}
	c.SetResidency(2)
	q := MustParseQuery(paperQ1)
	for i := 1; i <= 1000; i++ {
		if _, err := c.Search(q, SearchOptions{K: 3, Workers: 2, NoCache: true}); err != nil {
			t.Fatal(err)
		}
		if s := c.ResidencyStats(); s.Faults != uint64(4*i) {
			t.Fatalf("after search %d: %d faults, want %d", i, s.Faults, 4*i)
		}
		for _, mi := range c.Members() {
			if want := mi.Name >= "doc02"; mi.Resident != want {
				t.Fatalf("after search %d: member %s resident=%v, want %v", i, mi.Name, mi.Resident, want)
			}
		}
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
	before := renderAnswers(held, 60)

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
	if after := renderAnswers(held, 60); after != before {
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

// TestReadersTakeNoWriterLock holds the membership mutex, as a writer
// would, and checks that a search (with cold members' first faults and
// an eviction) and the membership readers complete without it.
func TestReadersTakeNoWriterLock(t *testing.T) {
	corpus := residencyCorpus(t, 2)
	c := NewCollection()
	defer c.Close() //nolint:errcheck
	for _, m := range corpus {
		if err := c.AddSnapshotFile(m.name, m.path); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add("pinned", doc); err != nil {
		t.Fatal(err)
	}
	c.SetCache(8)
	c.SetResidency(1)

	c.mu.Lock()
	done := make(chan string)
	go func() {
		answers, err := c.Search(MustParseQuery(paperQ1), SearchOptions{K: 5})
		switch s := c.ResidencyStats(); {
		case err != nil:
			done <- err.Error()
		case len(answers) == 0:
			done <- "search found nothing"
		case s.Faults != 2 || s.Evictions != 1:
			done <- fmt.Sprintf("residency %+v, want 2 faults and 1 eviction", s)
		case c.Len() != 3 || len(c.Names()) != 3 || len(c.Members()) != 3 || c.Nodes() <= 0:
			done <- "membership readers disagree"
		default:
			done <- ""
		}
	}()
	select {
	case msg := <-done:
		c.mu.Unlock()
		if msg != "" {
			t.Fatal(msg)
		}
	case <-time.After(5 * time.Second):
		c.mu.Unlock()
		<-done // the reader finishes before Close unmaps its members
		t.Fatal("a reader waited for the membership mutex")
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

// coldAndReference adds corpus to a fresh collection cold and, as an
// in-memory reference, to a second one with every member loaded.
func coldAndReference(t *testing.T, corpus []struct{ name, path string }) (cold, ref *Collection) {
	t.Helper()
	cold, ref = NewCollection(), NewCollection()
	t.Cleanup(func() { cold.Close(); ref.Close() }) //nolint:errcheck
	for _, m := range corpus {
		if err := cold.AddSnapshotFile(m.name, m.path); err != nil {
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
	return cold, ref
}

// coldSearch is one query shape run against a cold collection, with the
// ranking the in-memory reference gives it.
type coldSearch struct {
	name string
	q    *Query
	opts SearchOptions
	want string
}

// coldSearches pairs each (query, options) with the rendering of the
// reference's sequential, uncached answer to it.
func coldSearches(t *testing.T, ref *Collection, cases []coldSearch) []coldSearch {
	t.Helper()
	for i := range cases {
		o := cases[i].opts
		o.Workers, o.NoCache = 1, true
		want, err := ref.Search(cases[i].q, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: reference search found nothing", cases[i].name)
		}
		cases[i].want = renderAnswers(want, 60)
	}
	return cases
}

// weightedOpts is a search under non-unit weights and a type hierarchy:
// both are part of the plan-template key.
var weightedOpts = SearchOptions{
	K: 20, Algorithm: Hybrid, NoCache: true,
	Weights:   Weights{Structural: 2, Contains: 1.5},
	Hierarchy: map[string]string{"appendix": "section"},
}

// TestResidencyConcurrentStress hammers a capped collection from many
// goroutines — searches of three shapes (one weighted), single-document
// lookups, cap changes — under the race detector. Every search must
// return the ranking the in-memory collection does, and every lookup the
// one document its member was first decoded to.
func TestResidencyConcurrentStress(t *testing.T) {
	corpus := residencyCorpus(t, 4)
	c, ref := coldAndReference(t, corpus)
	c.SetResidency(1)
	searches := coldSearches(t, ref, []coldSearch{
		{name: "Q1", q: MustParseQuery(paperQ1), opts: SearchOptions{K: 20, Algorithm: Hybrid, NoCache: true}},
		{name: "titled", q: MustParseQuery(`//article[./title and ./section/paragraph[.contains("XML")]]`),
			opts: SearchOptions{K: 20, Algorithm: SSO, NoCache: true}},
		{name: "weighted", q: MustParseQuery(paperQ1), opts: weightedOpts},
	})
	first := map[string]*Document{}
	for _, m := range corpus {
		d, ok := c.Document(m.name)
		if !ok {
			t.Fatalf("document %s not served", m.name)
		}
		first[m.name] = d
	}

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
					s := searches[rng.Intn(len(searches))]
					got, err := c.SearchContext(context.Background(), s.q, s.opts)
					if err != nil {
						errs <- err
						return
					}
					if renderAnswers(got, 60) != s.want {
						errs <- fmt.Errorf("worker %d iter %d: %s ranking diverged", w, i, s.name)
						return
					}
				case 1:
					name := corpus[rng.Intn(len(corpus))].name
					if d, ok := c.Document(name); !ok || d != first[name] {
						errs <- fmt.Errorf("document %s lost or decoded again (%p, first %p)", name, d, first[name])
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
	// Members cycled many times over, yet each was decoded — and so
	// checksummed and validated — exactly once: every lookup above and
	// below returns the first fault's document.
	if s.Faults < 4*uint64(len(corpus)) {
		t.Fatalf("%d faults for %d members: members did not cycle", s.Faults, len(corpus))
	}
	for _, m := range corpus {
		if d, ok := c.Document(m.name); !ok || d != first[m.name] {
			t.Fatalf("member %s decoded again across %d faults", m.name, s.Faults)
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
		span := reg.StartSpan(time.Now(), q.String(), "Hybrid", "structure-first", 5)
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

// TestTemplatesSurviveEviction cycles three members through one
// residency slot for 24 rounds. Every round's DPO, SSO, Hybrid and
// weighted-with-hierarchy rankings are byte-identical to the in-memory
// reference, and after the first round no plan template is built again:
// an evicted member keeps its templates and a re-fault brings them back.
func TestTemplatesSurviveEviction(t *testing.T) {
	corpus := residencyCorpus(t, 3)
	c, ref := coldAndReference(t, corpus)
	c.SetResidency(1)
	q := MustParseQuery(paperQ1)
	var cases []coldSearch
	for _, algo := range []Algorithm{DPO, SSO, Hybrid} {
		cases = append(cases, coldSearch{name: algo.String(), q: q, opts: SearchOptions{K: 20, Algorithm: algo, NoCache: true}})
	}
	cases = append(cases, coldSearch{name: "weighted", q: q, opts: weightedOpts})
	searches := coldSearches(t, ref, cases)

	// The algorithms share a template; the weighted search is a second
	// key. So each member builds two templates, once.
	misses := uint64(2 * len(corpus))
	const rounds = 24
	for r := 0; r < rounds; r++ {
		for _, s := range searches {
			got, err := c.Search(s.q, s.opts)
			if err != nil {
				t.Fatal(err)
			}
			if g := renderAnswers(got, 60); g != s.want {
				t.Fatalf("round %d %s: ranking differs from in-memory:\n%s\nvs\n%s", r, s.name, g, s.want)
			}
		}
		if ps, _ := c.PlanCacheStats(); ps.Misses != misses {
			t.Fatalf("round %d: %d plan-cache misses, want %d: templates were rebuilt after eviction", r, ps.Misses, misses)
		}
	}
	// Every search visits all three members through one slot, so each
	// one faults (nearly) every member in again.
	if s := c.ResidencyStats(); s.Faults < rounds*uint64(len(searches)) || s.Evictions < rounds*uint64(len(searches)) {
		t.Fatalf("members did not cycle: %+v", s)
	}
}

// TestPlanCacheCountersSurviveEviction: the collection's cache counters
// cover every decoded member, evicted ones included, and an evicted
// member's counters carry on when it is faulted back in. Three members
// through one slot and two shapes build exactly six templates however
// many rounds run; every later lookup is a hit.
func TestPlanCacheCountersSurviveEviction(t *testing.T) {
	corpus := residencyCorpus(t, 3)
	c, _ := coldAndReference(t, corpus)
	c.SetResidency(1)
	shapes := []struct {
		q    *Query
		opts SearchOptions
	}{
		{MustParseQuery(paperQ1), SearchOptions{K: 5, Algorithm: Hybrid, NoCache: true}},
		{MustParseQuery(paperQ1), weightedOpts},
	}
	var hits uint64
	for r := 0; r < 10; r++ {
		for _, s := range shapes {
			if _, err := c.Search(s.q, s.opts); err != nil {
				t.Fatal(err)
			}
		}
		ps, ok := c.PlanCacheStats()
		if !ok || ps.Misses != 6 {
			t.Fatalf("round %d: %+v, want exactly 6 misses (3 members x 2 shapes)", r, ps)
		}
		if r > 0 && ps.Hits <= hits {
			t.Fatalf("round %d: hits %d -> %d, want growth", r, hits, ps.Hits)
		}
		hits = ps.Hits
		if ps.Entries != 6 {
			t.Fatalf("round %d: %d templates held, want 6", r, ps.Entries)
		}
	}
	if s := c.ResidencyStats(); s.Resident != 1 || s.Faults < 20 {
		t.Fatalf("members did not cycle: %+v", s)
	}
}

// TestRemoveReplaceReleaseEvictedMember: an evicted cold member keeps
// its templates, so removing or replacing it must purge them even though
// it is not resident; whoever still holds the old member (a durable
// collection's checkpoint map) would pin them otherwise.
func TestRemoveReplaceReleaseEvictedMember(t *testing.T) {
	corpus := residencyCorpus(t, 3)
	c, _ := coldAndReference(t, corpus)
	c.SetResidency(1)
	if _, err := c.Search(MustParseQuery(paperQ1), SearchOptions{K: 5, Algorithm: Hybrid, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	members := c.members()
	var evicted []*Document
	for _, m := range members {
		if m.doc.Load() != nil {
			continue
		}
		d := m.decoded()
		if ps, _ := d.PlanCacheStats(); ps.Entries == 0 {
			t.Fatalf("evicted member %s holds no templates", m.name)
		}
		evicted = append(evicted, d)
	}
	if len(evicted) != 2 {
		t.Fatalf("%d evicted members, want 2", len(evicted))
	}
	fresh, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	replaced, removed := members[0].name, members[1].name
	if members[0].doc.Load() != nil {
		replaced = members[2].name
	} else if members[1].doc.Load() != nil {
		removed = members[2].name
	}
	if err := c.Replace(replaced, fresh); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(removed); err != nil {
		t.Fatal(err)
	}
	for i, d := range evicted {
		if ps, _ := d.PlanCacheStats(); ps.Entries != 0 {
			t.Errorf("outgoing evicted member %d still holds %d templates", i, ps.Entries)
		}
	}
}
