package flexpath

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"flexpath/internal/lru"
	"flexpath/internal/mmapio"
	"flexpath/internal/obs"
)

// Collection is a set of queryable documents searched as one corpus — the
// paper's data model is "a data tree (i.e., an XML document collection)".
// Each member document keeps its own indexes, statistics and relaxation
// chains (penalties are per-document properties: the same query may relax
// differently over differently-shaped documents); a collection search
// merges the per-document rankings into one global top-K. The collection
// is the only owner of a result cache (see search.go); a member document
// caches only its plan templates, which hold their chains' full-text
// results.
//
// A Collection is a live corpus: Add, Replace, Upsert, Remove and
// RemoveIfPresent may run concurrently with searches and with each other.
// One opened with OpenDurableCollection also logs every mutation before it
// returns (see durable.go).
// The membership is an immutable slice published behind an atomic
// pointer. Each mutation resolves and publishes a new slice under one
// writer mutex; a search loads the published slice once at entry, with no
// lock, and evaluates against it, so it sees a consistent corpus (never a
// half-applied mutation) and never waits for a writer or another search.
type Collection struct {
	// mu orders writers (mutate, and a durable collection's log append and
	// checkpoint cut) and guards byName, gone, mappings and dur's
	// cadence.
	mu sync.Mutex
	// dur is the durability state, set by OpenDurableCollection before
	// the collection is returned and never changed; nil when in memory.
	dur *durability
	// live is the published membership in insertion order. A published
	// slice is never written; mutate publishes a new one.
	live   atomic.Pointer[[]*member]
	byName map[string]int
	// gone holds the plan-cache counters of documents that left the
	// corpus, so the summed counters never go backwards (see retire).
	gone lru.Stats

	// qc is the result cache (see SetCache); nil when disabled.
	qc atomic.Pointer[lru.Cache[[]part]]
	// beforePut, when set (tests only), runs between a search's
	// evaluation and its cache put.
	beforePut func()

	// Residency state (see residency.go): faults and faultNanos count
	// cold members' decodes, and mappings records every open file
	// mapping for Close.
	faults     atomic.Uint64
	faultNanos atomic.Int64
	mappings   []*mmapio.Mapping
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{byName: make(map[string]int)}
}

// Membership errors: a verb that needs the name absent fails with
// ErrDocumentExists, one that needs it present with ErrNoDocument.
var (
	// ErrDocumentExists reports an Add naming a document already present.
	ErrDocumentExists = errors.New("document already exists")
	// ErrNoDocument reports a Remove or Replace naming an absent document.
	ErrNoDocument = errors.New("no such document")
)

// verb is a membership change. resolve decides what it does to a name
// that is or is not present; every verb, durable or not, resolves there.
type verb uint8

const (
	verbAdd verb = iota
	verbReplace
	verbRemove
	verbUpsert
	verbRemoveIfPresent
)

// resolve returns the strict verb (verbAdd, verbReplace or verbRemove)
// that v applies to name given whether it exists; ok is false when v
// changes nothing, with a typed error when v's precondition fails. A
// strict verb whose precondition holds resolves to itself.
func (v verb) resolve(name string, exists bool) (op verb, ok bool, err error) {
	switch {
	case v == verbAdd && exists:
		return 0, false, fmt.Errorf("flexpath: %w: %q", ErrDocumentExists, name)
	case (v == verbReplace || v == verbRemove) && !exists:
		return 0, false, fmt.Errorf("flexpath: %w: %q", ErrNoDocument, name)
	case v == verbRemoveIfPresent && !exists:
		return 0, false, nil
	case v == verbRemove || v == verbRemoveIfPresent:
		return verbRemove, true, nil
	case exists:
		return verbReplace, true, nil
	}
	return verbAdd, true, nil
}

// mutate is the one membership change, and the one place that decides
// durability. Under mu it resolves v against whether name is present; on
// a durable collection it appends the strict verb v resolved to, with
// rec (the incoming member's FXP3 bytes, nil for a removal), to the log;
// then it publishes a new membership that inserts mem, swaps it into the
// name's slot (keeping its position in the ranking tie-break order) or
// drops the slot. A failed append changes nothing. mp, if any, is
// recorded for Close. The durability wait happens after mu is released,
// so concurrent mutations append back-to-back and share one
// group-commit fsync instead of serializing through it. It reports
// whether the membership changed: a failed wait reports true with its
// error, since the change is published, though not acknowledged.
func (c *Collection) mutate(v verb, name string, mem *member, mp *mmapio.Mapping, rec []byte) (bool, error) {
	changed, lsn, err := c.publish(v, name, mem, mp, rec)
	if !changed || err != nil || c.dur == nil {
		return changed, err
	}
	return true, c.dur.log.WaitDurable(lsn)
}

// publish is mutate under mu; lsn is the appended record's.
func (c *Collection) publish(v verb, name string, mem *member, mp *mmapio.Mapping, rec []byte) (changed bool, lsn uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byName == nil {
		c.byName = make(map[string]int)
	}
	i, exists := c.byName[name]
	op, ok, err := v.resolve(name, exists)
	if !ok {
		return false, 0, err
	}
	if c.dur != nil {
		if lsn, err = c.appendRecord(op, name, rec); err != nil {
			return false, 0, err
		}
	}
	if mp != nil {
		c.mappings = append(c.mappings, mp)
	}
	cur := c.members()
	var next []*member
	switch op {
	case verbAdd:
		// Appending writes past the end of every published slice, where
		// no holder reads.
		c.byName[name] = len(cur)
		next = append(cur, mem)
	case verbReplace:
		next = append([]*member(nil), cur...)
		next[i] = mem
	case verbRemove:
		// A removed cold member's mapping stays open (answers already
		// handed out may alias it) and is released by Close.
		next = append(cur[:i:i], cur[i+1:]...)
		delete(c.byName, name)
		for j := i; j < len(next); j++ {
			c.byName[next[j].name] = j
		}
	}
	c.live.Store(&next)
	if op != verbAdd {
		c.retire(cur[i])
	}
	return true, lsn, nil
}

// members returns the published membership. The slice is shared and must
// not be written.
func (c *Collection) members() []*member {
	if p := c.live.Load(); p != nil {
		return *p
	}
	return nil
}

// pinned returns a slot holding a decoded document with no cold backing.
func pinned(name string, doc *Document) *member {
	mem := &member{name: name}
	mem.doc.Store(doc)
	return mem
}

// Add inserts a document under a name (typically its file name), failing
// with ErrDocumentExists if the name is taken. Names appear in
// CollectionAnswer. The next cached search evaluates only the new member.
// The same *Document may be added under several names.
func (c *Collection) Add(name string, doc *Document) error {
	return c.put(verbAdd, name, doc)
}

// Replace swaps the named document for doc, keeping its position in the
// ranking tie-break order, and fails with ErrNoDocument if the name is
// absent. The replaced document's own caches are purged, and the next
// cached search evaluates only the incoming document. The incoming
// document is pinned even when it replaces a cold member.
func (c *Collection) Replace(name string, doc *Document) error {
	return c.put(verbReplace, name, doc)
}

// Upsert adds doc under name if the name is absent and replaces the named
// document otherwise, as one atomic step: concurrent Upserts and
// RemoveIfPresents of one name never fail. Retrying an upsert after an
// ambiguous failure (a crashed or unreachable server) is always safe,
// which makes it the right verb for bulk ingest pipelines.
func (c *Collection) Upsert(name string, doc *Document) error {
	return c.put(verbUpsert, name, doc)
}

// put is the verbs that bring a document. A durable collection logs
// the document's FXP3 snapshot, encoded before mutate takes the lock.
func (c *Collection) put(v verb, name string, doc *Document) error {
	var rec bytes.Buffer
	if c.dur != nil {
		if err := doc.SaveFXP3Snapshot(&rec); err != nil {
			return err
		}
	}
	_, err := c.mutate(v, name, pinned(name, doc), nil, rec.Bytes())
	return err
}

// Remove deletes the named document from the collection, failing with
// ErrNoDocument if it is absent, and purges the removed document's own
// caches. Searches already in flight keep evaluating the membership
// they loaded, including the removed document; later
// cached searches evaluate no member again.
func (c *Collection) Remove(name string) error {
	_, err := c.mutate(verbRemove, name, nil, nil, nil)
	return err
}

// RemoveIfPresent deletes the named document if it is a member and reports
// whether it was, as one atomic step. Like Upsert, it is retry-safe.
func (c *Collection) RemoveIfPresent(name string) (bool, error) {
	return c.mutate(verbRemoveIfPresent, name, nil, nil, nil)
}

// retire accounts for a member leaving the corpus, under mu and after the
// membership without it is published: unless another member still holds
// the same document, its plan-cache counters move to gone and its plan
// cache is purged (a durable checkpoint map may still hold the member).
// The collection's result cache needs no purge (see part).
func (c *Collection) retire(old *member) {
	d := old.doc.Load()
	if d == nil {
		return
	}
	for _, m := range c.members() {
		if m.doc.Load() == d {
			return
		}
	}
	s := d.pc.Stats()
	s.Entries, s.Capacity = 0, 0 // gauges, not counters
	c.gone = plus(c.gone, s)
	d.purgeCache()
}

// AddFile adds the corpus file at path, named by the path, deciding its
// format by its magic and never by its extension: an FXP3 snapshot joins
// cold (see AddSnapshotFile), an FXP2 or FXT1 snapshot is
// ErrLegacySnapshot naming the file, and anything else parses as XML and
// is added pinned.
func (c *Collection) AddFile(path string) error {
	f, isFXP3, err := openFile(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if isFXP3 {
		return c.AddSnapshotFile(path, path)
	}
	doc, err := Load(f)
	if err != nil {
		return fmt.Errorf("flexpath: %s: %w", path, err)
	}
	return c.Add(path, doc)
}

// CorpusFiles lists the corpus files of dir in name order: the entries
// that are not directories and end in .xml or .fxp3, in any case. A
// directory without one is an error. The extension only selects the
// files; AddFile decides each one's format by its magic.
func CorpusFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		ext := filepath.Ext(e.Name())
		if !e.IsDir() && (strings.EqualFold(ext, ".xml") || strings.EqualFold(ext, ".fxp3")) {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("flexpath: no .xml or .fxp3 files in %s", dir)
	}
	return paths, nil
}

// Len returns the number of documents.
func (c *Collection) Len() int { return len(c.members()) }

// Nodes returns the total number of element nodes across all documents.
// Cold members report from their snapshot's meta section; counting
// never faults a document in.
func (c *Collection) Nodes() int {
	total := 0
	for _, m := range c.members() {
		total += m.nodes()
	}
	return total
}

// Names returns the document names in insertion order.
func (c *Collection) Names() []string {
	members := c.members()
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.name
	}
	return names
}

// Has reports whether a document with the given name is a member,
// without faulting it in.
func (c *Collection) Has(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byName[name]
	return ok
}

// Document returns the named document, if present, faulting it in when
// cold (a failed fault reports absent). Callers that only need
// metadata should use Members, which never faults.
func (c *Collection) Document(name string) (*Document, bool) {
	c.mu.Lock()
	var mem *member
	if i, ok := c.byName[name]; ok {
		mem = c.members()[i]
	}
	c.mu.Unlock()
	if mem == nil {
		return nil, false
	}
	d, err := c.require(mem, nil)
	if err != nil {
		return nil, false
	}
	return d, true
}

// SetCache enables the collection's result cache holding up to capacity
// result sets; capacity <= 0 disables it. It is the only result cache:
// documents have none. Keys cover everything that determines a result set
// (normalized query, algorithm, scheme, K, offset, weights, hierarchy), so
// differently-shaped requests never collide; Workers does not affect
// answers and is excluded. An entry keeps each member's top K+Offset
// tagged with its document, so a membership change purges nothing: the
// next search evaluates only the members new to the entry. An entry is
// admitted on its second sighting: the first search of a key only records
// it, so a query asked once leaves nothing behind; the second keeps it.
func (c *Collection) SetCache(capacity int) {
	if capacity <= 0 {
		c.qc.Store(nil)
		return
	}
	c.qc.Store(lru.New[[]part](capacity))
}

// SetDocumentCaches does nothing. Documents no longer cache results (the
// collection's cache, SetCache, is the only result cache); the method is
// kept only because the frozen benchmark harness still calls it, and goes
// with that call.
func (c *Collection) SetDocumentCaches(capacity int) {}

// PlanCacheStats sums the plan-template cache counters of the decoded
// member documents; ok is false when no member is decoded.
func (c *Collection) PlanCacheStats() (s PlanCacheStats, ok bool) {
	st, ok := c.sumPlanStats()
	return PlanCacheStats(st), ok
}

// CacheStats reports the collection's result cache counters; ok is false
// when it is disabled.
func (c *Collection) CacheStats() (s CacheStats, ok bool) {
	st, ok := statsOf(c.qc.Load())
	return cacheStatsFrom(st), ok
}

// sumPlanStats adds up the plan-cache counters of the distinct decoded
// documents of the members (a document added under two names counts once)
// and of the documents that have left (gone), so its counters only grow;
// ok is false when no member is decoded. mu orders it with retire: no sum
// sees a departing document twice or not at all.
func (c *Collection) sumPlanStats() (sum lru.Stats, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum = c.gone
	members := c.members()
	seen := make(map[*Document]bool, len(members))
	for _, m := range members {
		if d := m.doc.Load(); d != nil && !seen[d] {
			seen[d] = true
			sum, ok = plus(sum, d.pc.Stats()), true
		}
	}
	return sum, ok
}

func plus(a, b lru.Stats) lru.Stats {
	return lru.Stats{Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Evictions: a.Evictions + b.Evictions,
		Dedups: a.Dedups + b.Dedups, Entries: a.Entries + b.Entries, Capacity: a.Capacity + b.Capacity}
}

// CollectionAnswer is an Answer tagged with the document it came from.
type CollectionAnswer struct {
	Answer
	// DocName is the name the document was added under.
	DocName string
}

// Search runs the query against every document and merges the rankings
// into one global top-K under the chosen scheme. Structural scores are
// comparable across documents because they are derived from the same
// query's predicate weights; penalties (and hence relaxed answers'
// scores) reflect each document's own statistics, as the paper intends
// ("this weight may be ... computed by analyzing the input document").
//
// Per-document evaluation fans out across a bounded worker pool
// (SearchOptions.Workers, default GOMAXPROCS). The merged ranking is
// deterministic regardless of worker count: per-document results are
// collected by document index and merged with (score, document name,
// node) tie-breaking.
func (c *Collection) Search(q *Query, opts SearchOptions) ([]CollectionAnswer, error) {
	return c.SearchContext(context.Background(), q, opts)
}

// SearchContext is Search with cancellation; see Document.SearchContext.
// Cancelled searches are never cached.
func (c *Collection) SearchContext(ctx context.Context, q *Query, opts SearchOptions) ([]CollectionAnswer, error) {
	// One published membership for the whole search: a concurrent
	// Add/Remove/Replace neither blocks behind this search nor changes
	// which documents it evaluates.
	members := c.members()
	set := &membership{c: c, members: members}
	return search(ctx, c, set, q, opts, func(i int, a Answer) CollectionAnswer {
		return CollectionAnswer{Answer: a, DocName: members[i].name}
	})
}

// membership is a published membership as a search corpus.
type membership struct {
	c       *Collection
	members []*member
}

func (m *membership) size() int               { return len(m.members) }
func (m *membership) name(i int) string       { return m.members[i].name }
func (m *membership) decoded(i int) *Document { return m.members[i].doc.Load() }
func (m *membership) load(i int, span *obs.Span) (*Document, error) {
	return m.c.require(m.members[i], span)
}
func (m *membership) wrap(i int, err error) error {
	return fmt.Errorf("flexpath: document %q: %w", m.members[i].name, err)
}

func (m *Metrics) add(o Metrics) {
	m.QueriesEvaluated += o.QueriesEvaluated
	m.PlansRun += o.PlansRun
	if o.RelaxationsEncoded > m.RelaxationsEncoded {
		m.RelaxationsEncoded = o.RelaxationsEncoded
	}
	m.Restarts += o.Restarts
	m.TuplesGenerated += o.TuplesGenerated
	m.TuplesPruned += o.TuplesPruned
	m.SortedTuples += o.SortedTuples
	m.Buckets += o.Buckets
}
