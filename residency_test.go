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

// TestColdCollectionByteIdentity serves a corpus from cold FXP3 members
// and checks the merged ranking — ids, scores, snippets — is identical
// to an in-memory collection's on every pass, while each member is
// decoded once: SetResidency bounds nothing.
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

	for pass := 0; pass < 3; pass++ {
		got, err := cold.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if renderAnswers(got, 60) != renderAnswers(want, 60) {
			t.Fatalf("pass %d: cold ranking differs from in-memory:\n%s\nvs\n%s",
				pass, renderAnswers(got, 60), renderAnswers(want, 60))
		}
		s := cold.ResidencyStats()
		if s.Faults != 6 || s.Evictions != 0 || s.Resident != 6 || s.Cold != 0 {
			t.Fatalf("pass %d: %+v, want 6 faults, 6 resident and no evictions (each member decoded once)", pass, s)
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
	// Search everything: the pinned member is never faulted and never
	// counted as a snapshot member.
	if _, err := c.Search(MustParseQuery(paperQ1), SearchOptions{K: 20, Algorithm: Hybrid, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	s := c.ResidencyStats()
	if s.Pinned != 1 || s.Resident != 2 || s.Faults != 2 {
		t.Fatalf("stats %+v, want 1 pinned and 2 snapshot members faulted once", s)
	}
	for _, mi := range c.Members() {
		if mi.Name == "pinned" && (!mi.Resident || !mi.Pinned) {
			t.Fatalf("pinned member demoted: %+v", mi)
		}
	}
}

// TestEvictionKeepsAnswersAlive holds answers from a faulted-in document
// across its removal: the answer strings alias the snapshot mapping, so
// Remove must leave the mapping open until Close.
func TestEvictionKeepsAnswersAlive(t *testing.T) {
	corpus := residencyCorpus(t, 2)
	c := NewCollection()
	defer c.Close() //nolint:errcheck
	for _, m := range corpus {
		if err := c.AddSnapshotFile(m.name, m.path); err != nil {
			t.Fatal(err)
		}
	}
	q := MustParseQuery(paperQ1)
	held, err := c.Search(q, SearchOptions{K: 5, Algorithm: Hybrid, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	before := renderAnswers(held, 60)

	for _, m := range corpus {
		if err := c.Remove(m.name); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.ResidencyStats(); s.Faults != 2 || c.Len() != 0 {
		t.Fatalf("after removing both decoded members: %+v, %d members", s, c.Len())
	}
	// The held answers — paths, ids, snippets — must read back
	// unchanged: their backing mapping is still open.
	if after := renderAnswers(held, 60); after != before {
		t.Fatalf("held answers changed after removal:\n%s\nvs\n%s", after, before)
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
// would, and checks that a search (with cold members' first faults) and
// the membership readers complete without it.
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

	c.mu.Lock()
	done := make(chan string)
	go func() {
		answers, err := c.Search(MustParseQuery(paperQ1), SearchOptions{K: 5})
		switch s := c.ResidencyStats(); {
		case err != nil:
			done <- err.Error()
		case len(answers) == 0:
			done <- "search found nothing"
		case s.Faults != 2:
			done <- fmt.Sprintf("residency %+v, want 2 faults", s)
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

// TestResidencyConcurrentStress hammers a cold collection from many
// goroutines — searches of three shapes (one weighted) and
// single-document lookups, racing on every member's first fault — under
// the race detector. Every search must return the ranking the in-memory
// collection does, each member must be decoded exactly once, and every
// lookup must return that one decode's document.
func TestResidencyConcurrentStress(t *testing.T) {
	corpus := residencyCorpus(t, 4)
	c, ref := coldAndReference(t, corpus)
	searches := coldSearches(t, ref, []coldSearch{
		{name: "Q1", q: MustParseQuery(paperQ1), opts: SearchOptions{K: 20, Algorithm: Hybrid, NoCache: true}},
		{name: "titled", q: MustParseQuery(`//article[./title and ./section/paragraph[.contains("XML")]]`),
			opts: SearchOptions{K: 20, Algorithm: SSO, NoCache: true}},
		{name: "weighted", q: MustParseQuery(paperQ1), opts: weightedOpts},
	})
	var first sync.Map // name -> the first *Document a lookup returned

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
				if rng.Intn(2) == 0 {
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
					continue
				}
				name := corpus[rng.Intn(len(corpus))].name
				d, ok := c.Document(name)
				if !ok {
					errs <- fmt.Errorf("document %s lost", name)
					return
				}
				if prev, _ := first.LoadOrStore(name, d); prev != d {
					errs <- fmt.Errorf("document %s decoded again (%p, first %p)", name, d, prev)
					return
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
	if s.Faults != uint64(len(corpus)) || s.Evictions != 0 || s.Resident != len(corpus) {
		t.Fatalf("%+v, want each of %d members faulted exactly once", s, len(corpus))
	}
	for _, m := range corpus {
		d, ok := c.Document(m.name)
		if prev, _ := first.LoadOrStore(m.name, d); !ok || prev != d {
			t.Fatalf("member %s decoded again (%p, first %p)", m.name, d, prev)
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

// TestRemoveReplaceReleaseEvictedMember: a decoded cold member keeps
// its templates, so removing or replacing it must purge them; whoever
// still holds the old member (a durable collection's checkpoint map)
// would pin them otherwise.
func TestRemoveReplaceReleaseEvictedMember(t *testing.T) {
	corpus := residencyCorpus(t, 3)
	c, _ := coldAndReference(t, corpus)
	if _, err := c.Search(MustParseQuery(paperQ1), SearchOptions{K: 5, Algorithm: Hybrid, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	members := c.members()
	var outgoing []*Document
	for _, m := range members[:2] {
		d := m.doc.Load()
		if ps, _ := d.PlanCacheStats(); ps.Entries == 0 {
			t.Fatalf("decoded member %s holds no templates", m.name)
		}
		outgoing = append(outgoing, d)
	}
	fresh, err := LoadString(articlesXML)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Replace(members[0].name, fresh); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(members[1].name); err != nil {
		t.Fatal(err)
	}
	for i, d := range outgoing {
		if ps, _ := d.PlanCacheStats(); ps.Entries != 0 {
			t.Errorf("outgoing member %d still holds %d templates", i, ps.Entries)
		}
	}
	if ps, _ := members[2].doc.Load().PlanCacheStats(); ps.Entries == 0 {
		t.Error("the member that stayed lost its templates")
	}
}
