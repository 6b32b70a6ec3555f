package flexpath

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flexpath/internal/lru"
	"flexpath/internal/merge"
	"flexpath/internal/mmapio"
	"flexpath/internal/obs"
)

// Collection is a set of queryable documents searched as one corpus — the
// paper's data model is "a data tree (i.e., an XML document collection)".
// Each member document keeps its own indexes, statistics and relaxation
// chains (penalties are per-document properties: the same query may relax
// differently over differently-shaped documents); a collection search
// merges the per-document rankings into one global top-K.
//
// A Collection is a live corpus: Add, Remove and Replace may run
// concurrently with searches. Membership is guarded by an internal
// RWMutex; a search snapshots the membership once at entry and evaluates
// against that snapshot, so it sees a consistent corpus (never a
// half-applied mutation) and never blocks behind another search.
type Collection struct {
	mu      sync.RWMutex
	names   []string
	members []*member
	byName  map[string]int
	// docCacheCap remembers the last SetDocumentCaches capacity so
	// documents added, swapped in or first decoded later get the same cache
	// configuration as the members present at call time. docCacheSet
	// distinguishes "never configured" (leave new documents alone) from
	// "explicitly disabled" (capacity <= 0 disables new documents too).
	docCacheCap int
	docCacheSet bool

	// qc, when set, caches merged collection-level result sets; see
	// SetCache. The invariant that keeps it fresh: a search reads qc's
	// epoch before it snapshots the membership, and every mutation
	// purges qc after publishing the new membership under mu. A search
	// that snapshotted the old corpus therefore read the old epoch, and
	// its put is either dropped (after the purge) or swept by it.
	qc atomic.Pointer[lru.Cache[cachedSearch[[]CollectionAnswer]]]
	// beforePut, when set (tests only), runs between a search's
	// evaluation and its cache put.
	beforePut func()

	// Residency state (see residency.go): maxResident bounds how many
	// fault-capable members stay decoded, tick is the logical LRU
	// clock, faults/evictions count residency traffic, evictMu
	// serializes eviction sweeps, and mappings records every open file
	// mapping for Close.
	maxResident atomic.Int64
	tick        atomic.Int64
	faults      atomic.Uint64
	evictions   atomic.Uint64
	faultNanos  atomic.Int64
	evictMu     sync.Mutex
	mappings    []*mmapio.Mapping
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{byName: make(map[string]int)}
}

// Add inserts a document under a name (typically its file name). Names
// appear in CollectionAnswer and must be unique. Adding a document purges
// the collection-level query cache (cached merged rankings no longer
// cover the whole corpus) and applies the collection's document-cache
// configuration (SetDocumentCaches) to the new member.
func (c *Collection) Add(name string, doc *Document) error {
	mem := &member{name: name}
	mem.doc.Store(doc)
	if err := c.register(name, mem, nil); err != nil {
		return err
	}
	c.configure(doc)
	return nil
}

// configure applies the remembered SetDocumentCaches capacity to a
// document joining the live corpus (Add, Replace, a cold member's decode).
func (c *Collection) configure(d *Document) {
	c.mu.RLock()
	set, capacity := c.docCacheSet, c.docCacheCap
	c.mu.RUnlock()
	if set {
		d.SetCache(capacity)
	}
}

// published finishes a membership change made under mu: it purges the
// collection cache (see qc) and the outgoing member's document's caches,
// even while evicted: a durable checkpoint map may still hold the member.
func (c *Collection) published(old *member) {
	if qc := c.qc.Load(); qc != nil {
		qc.Purge()
	}
	if old != nil && old.decoded() != nil {
		old.decoded().purgeCache()
	}
}

// Remove deletes the named document from the collection. It purges the
// collection-level query cache (cached merged rankings cover a corpus
// that no longer exists) and the removed document's own cache. Searches
// already in flight keep evaluating the membership snapshot they started
// with, including the removed document.
func (c *Collection) Remove(name string) error {
	c.mu.Lock()
	i, ok := c.byName[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("flexpath: no document named %q", name)
	}
	old := c.members[i]
	// In-flight searches are isolated by snapshot()'s copy, so the
	// slices can be compacted in place under the exclusive lock. A
	// removed cold member's mapping stays open (answers already handed
	// out may alias it) and is released by Close.
	c.names = append(c.names[:i], c.names[i+1:]...)
	c.members = append(c.members[:i], c.members[i+1:]...)
	delete(c.byName, name)
	for j := i; j < len(c.names); j++ {
		c.byName[c.names[j]] = j
	}
	c.mu.Unlock()
	c.published(old)
	return nil
}

// Replace swaps the named document for doc, keeping its position in the
// ranking tie-break order. The collection-level query cache and the
// replaced document's own cache are purged; the incoming document gets
// the collection's document-cache configuration.
func (c *Collection) Replace(name string, doc *Document) error {
	c.mu.Lock()
	i, ok := c.byName[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("flexpath: no document named %q", name)
	}
	old := c.members[i]
	// The incoming document is pinned even when it replaces a cold
	// member: Replace hands over a decoded document, not a snapshot.
	mem := &member{name: name}
	mem.doc.Store(doc)
	c.members[i] = mem
	c.mu.Unlock()
	c.configure(doc)
	c.published(old)
	return nil
}

// snapshot returns a consistent view of the membership for one search.
// The returned slices are private copies, so the holder is isolated from
// later mutations (which compact or rewrite the originals in place).
func (c *Collection) snapshot() (names []string, members []*member) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.names...), append([]*member(nil), c.members...)
}

// decodedDocs returns every decoded member document, resident or
// evicted: the set cache configuration and statistics aggregation walk.
// Never-faulted members have no caches, and walking must not fault.
func (c *Collection) decodedDocs() []*Document {
	_, members := c.snapshot()
	docs := make([]*Document, 0, len(members))
	for _, m := range members {
		if d := m.decoded(); d != nil {
			docs = append(docs, d)
		}
	}
	return docs
}

// AddFile loads and adds the XML document at path, named by the path.
func (c *Collection) AddFile(path string) error {
	doc, err := LoadFile(path)
	if err != nil {
		return err
	}
	return c.Add(path, doc)
}

// Len returns the number of documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.members)
}

// Nodes returns the total number of element nodes across all documents.
// Cold members report from their snapshot's meta section; counting
// never faults a document in.
func (c *Collection) Nodes() int {
	_, members := c.snapshot()
	total := 0
	for _, m := range members {
		total += m.nodes()
	}
	return total
}

// Names returns the document names in insertion order.
func (c *Collection) Names() []string {
	names, _ := c.snapshot()
	return names
}

// Has reports whether a document with the given name is a member,
// without faulting it in.
func (c *Collection) Has(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.byName[name]
	return ok
}

// Document returns the named document, if present, faulting it in when
// cold (a failed fault reports absent). Callers that only need
// metadata should use Members, which never faults.
func (c *Collection) Document(name string) (*Document, bool) {
	c.mu.RLock()
	var mem *member
	if i, ok := c.byName[name]; ok {
		mem = c.members[i]
	}
	c.mu.RUnlock()
	if mem == nil {
		return nil, false
	}
	d, err := c.require(mem, nil)
	if err != nil {
		return nil, false
	}
	return d, true
}

// SetCache enables a collection-level cache of merged top-K rankings
// holding up to capacity result sets; capacity <= 0 disables it. Keys are
// the same normalized search keys Document.SetCache uses. The cache is
// purged whenever the membership changes (Add, Remove, Replace).
func (c *Collection) SetCache(capacity int) {
	if capacity <= 0 {
		c.qc.Store(nil)
		return
	}
	c.qc.Store(lru.New[cachedSearch[[]CollectionAnswer]](capacity))
}

// SetDocumentCaches enables (or, with capacity <= 0, disables) a
// per-document result cache of the given capacity on every member
// document. Per-document caches also serve direct Document.Search calls
// and survive collection cache purges. The capacity is remembered:
// documents added (or swapped in by Replace) later get the same cache
// configuration, so DocumentCacheStats covers the whole live corpus.
func (c *Collection) SetDocumentCaches(capacity int) {
	c.mu.Lock()
	c.docCacheCap = capacity
	c.docCacheSet = true
	c.mu.Unlock()
	// Decoded documents, evicted ones included, are reconfigured now;
	// never-faulted ones pick the remembered capacity up at their decode.
	for _, d := range c.decodedDocs() {
		d.SetCache(capacity)
	}
}

// PlanCacheStats sums the plan-template cache counters of every member
// document whose plan cache is enabled; ok is false when none is.
func (c *Collection) PlanCacheStats() (s PlanCacheStats, ok bool) {
	st, ok := c.sumStats(func(d *Document) (lru.Stats, bool) { return statsOf(d.pc.Load()) })
	return PlanCacheStats(st), ok
}

// CacheStats reports the collection-level cache counters; ok is false
// when no collection cache is enabled.
func (c *Collection) CacheStats() (s CacheStats, ok bool) {
	st, ok := statsOf(c.qc.Load())
	return cacheStatsFrom(st), ok
}

// DocumentCacheStats sums the cache counters of every member document
// that has a cache enabled; ok is false when none does.
func (c *Collection) DocumentCacheStats() (s CacheStats, ok bool) {
	st, ok := c.sumStats(func(d *Document) (lru.Stats, bool) { return statsOf(d.qc.Load()) })
	return cacheStatsFrom(st), ok
}

// FullTextCacheStats sums the full-text result cache counters of the
// decoded member documents (see Document.FullTextCacheStats).
func (c *Collection) FullTextCacheStats() CacheStats {
	st, _ := c.sumStats(func(d *Document) (lru.Stats, bool) { return d.index.CacheStats(), true })
	return cacheStatsFrom(st)
}

// sumStats adds up one cache's counters over the decoded members; ok
// is false when no member has that cache enabled.
func (c *Collection) sumStats(of func(*Document) (lru.Stats, bool)) (sum lru.Stats, ok bool) {
	for _, d := range c.decodedDocs() {
		if s, dok := of(d); dok {
			sum.Hits += s.Hits
			sum.Misses += s.Misses
			sum.Evictions += s.Evictions
			sum.Dedups += s.Dedups
			sum.Entries += s.Entries
			sum.Capacity += s.Capacity
			ok = true
		}
	}
	return sum, ok
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
func (c *Collection) SearchContext(ctx context.Context, q *Query, opts SearchOptions) ([]CollectionAnswer, error) {
	opts.defaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	span := obs.SpanFrom(ctx)

	qc := c.qc.Load()
	useCache := qc != nil && !opts.NoCache
	var key string
	var epoch uint64
	if useCache {
		key = searchCacheKey(q, opts)
		var tCache time.Time
		if span != nil {
			tCache = time.Now()
		}
		cs, ok := qc.Get(key)
		if span != nil {
			span.Rec(obs.StageCache, time.Since(tCache))
		}
		if ok {
			span.MarkCacheHit()
			cs.report(opts.Metrics)
			// Hand out a deep copy: callers may re-sort or truncate the
			// slice and mutate each answer's Relaxed strings; a shallow
			// copy would let that poison every later hit.
			return copyCollectionAnswers(cs.results), nil
		}
		// Before the snapshot below: see the invariant at Collection.qc.
		epoch = qc.Epoch()
	}

	// One consistent membership view for the whole search: a concurrent
	// Add/Remove/Replace neither blocks behind this search nor changes
	// which documents it evaluates.
	names, members := c.snapshot()

	perDoc := make([][]Answer, len(members))
	perErr := make([]error, len(members))
	perMet := make([]Metrics, len(members))
	runDoc := func(i int) {
		// Fault the member in if it is cold; the returned document stays
		// valid for this search even if the residency cap evicts the
		// member before the search finishes (eviction drops the
		// member's pointer, not the document or its mapping).
		d, err := c.require(members[i], span)
		if err != nil {
			perErr[i] = err
			return
		}
		sub := opts
		// Pagination is a property of the merged global ranking, not of
		// any member document's ranking: each document must contribute
		// its full top Offset+K (a globally-skipped answer may rank
		// anywhere within a single document), and the offset is applied
		// exactly once after the merge below.
		sub.K = opts.K + opts.Offset
		sub.Offset = 0
		// Always collected: the merged algorithm name is cached with the
		// ranking even when this caller does not ask for metrics.
		sub.Metrics = &perMet[i]
		perDoc[i], perErr[i] = d.SearchContext(ctx, q, sub)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(members) {
		workers = len(members)
	}
	if workers <= 1 {
		for i := range members {
			runDoc(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(members) {
						return
					}
					runDoc(i)
				}
			}()
		}
		wg.Wait()
	}

	// Error reporting and metrics accumulation walk documents in
	// insertion order, so the outcome is independent of worker timing.
	var tMerge time.Time
	if span != nil {
		tMerge = time.Now()
	}
	var all []CollectionAnswer
	var met Metrics
	for i := range members {
		if perErr[i] != nil {
			return nil, fmt.Errorf("flexpath: document %q: %w", names[i], perErr[i])
		}
		met.add(perMet[i])
		for _, a := range perDoc[i] {
			all = append(all, CollectionAnswer{Answer: a, DocName: names[i]})
		}
	}
	// The comparator lives in internal/merge so flexrouter's network
	// merge is byte-identical to this in-process one by construction.
	merge.Sort(all, func(a CollectionAnswer) merge.Key {
		return merge.Key{Score: rankScore(a.Answer), Doc: a.DocName, Ord: int(a.node)}
	}, opts.Scheme.rank())
	// Apply the global offset once, over the merged ranking.
	all = merge.Page(all, opts.K, opts.Offset)
	if span != nil {
		span.Rec(obs.StageMerge, time.Since(tMerge))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Metrics != nil {
		*opts.Metrics = met
	}
	if useCache {
		if c.beforePut != nil {
			c.beforePut()
		}
		// Store a deep copy so the caller's slice (returned below) and
		// the cached ranking share no mutable state.
		qc.Put(key, cachedSearch[[]CollectionAnswer]{
			results: copyCollectionAnswers(all), algo: met.Algorithm, reason: met.AlgoReason,
		}, epoch)
	}
	return all, nil
}

// copyCollectionAnswers clones a merged ranking including each answer's
// Relaxed slice, the only mutable state an Answer exposes.
func copyCollectionAnswers(src []CollectionAnswer) []CollectionAnswer {
	out := append([]CollectionAnswer(nil), src...)
	for i := range out {
		if len(out[i].Relaxed) > 0 {
			out[i].Relaxed = append([]string(nil), out[i].Relaxed...)
		}
	}
	return out
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
	// Each member document plans for itself: when they agree the merged
	// metrics name the common algorithm, otherwise "mixed".
	if o.Algorithm != "" {
		switch m.Algorithm {
		case "":
			m.Algorithm, m.AlgoReason = o.Algorithm, o.AlgoReason
		case o.Algorithm:
		default:
			m.Algorithm, m.AlgoReason = "mixed", ""
		}
	}
}

// PlannerStats aggregates the member documents' planner state: counters
// sum; the calibration scales, calibration errors and the restart rate
// average over the documents that have observed at least one Auto run.
func (c *Collection) PlannerStats() PlannerStats {
	agg := PlannerStats{
		Choices:          map[string]uint64{},
		Reasons:          map[string]uint64{},
		NsPerUnit:        map[string]float64{},
		CalibrationError: map[string]float64{},
	}
	nsN := map[string]int{}
	errN := map[string]int{}
	restartN := 0
	for _, d := range c.decodedDocs() {
		s := d.PlannerStats()
		for k, v := range s.Choices {
			agg.Choices[k] += v
		}
		for k, v := range s.Reasons {
			agg.Reasons[k] += v
		}
		for k, v := range s.NsPerUnit {
			agg.NsPerUnit[k] += v
			nsN[k]++
		}
		for k, v := range s.CalibrationError {
			agg.CalibrationError[k] += v
			errN[k]++
		}
		if s.Observations > 0 {
			agg.RestartRate += s.RestartRate
			restartN++
		}
		agg.Observations += s.Observations
	}
	for k, n := range nsN {
		agg.NsPerUnit[k] /= float64(n)
	}
	for k, n := range errN {
		agg.CalibrationError[k] /= float64(n)
	}
	if restartN > 0 {
		agg.RestartRate /= float64(restartN)
	}
	return agg
}

// LoadCollectionFiles builds a collection from XML files.
func LoadCollectionFiles(paths ...string) (*Collection, error) {
	c := NewCollection()
	for _, p := range paths {
		if err := c.AddFile(p); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// LoadCollectionDir builds a collection from every .xml file directly
// inside dir. The extension match is case-insensitive (".XML" files
// written by case-preserving filesystems load too).
func LoadCollectionDir(dir string) (*Collection, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	c := NewCollection()
	for _, e := range entries {
		if e.IsDir() || !strings.EqualFold(filepath.Ext(e.Name()), ".xml") {
			continue
		}
		if err := c.AddFile(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		}
	}
	if c.Len() == 0 {
		return nil, fmt.Errorf("flexpath: no .xml files in %s", dir)
	}
	return c, nil
}
