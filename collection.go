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

	"flexpath/internal/merge"
	"flexpath/internal/mmapio"
	"flexpath/internal/obs"
	"flexpath/internal/qcache"
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
	// documents added or swapped in later get the same cache
	// configuration as the members present at call time. docCacheSet
	// distinguishes "never configured" (leave new documents alone) from
	// "explicitly disabled" (capacity <= 0 disables new documents too).
	docCacheCap int
	docCacheSet bool
	// planCacheCap/planCacheSet remember SetPlanCaches the same way, so
	// later members get the collection's plan-cache sizing too. Unset
	// leaves new documents on DefaultPlanCacheCapacity.
	planCacheCap int
	planCacheSet bool

	// qc, when set, caches merged collection-level result sets; see
	// SetCache. Any membership mutation purges it.
	qc atomic.Pointer[qcache.Cache]
	// gen is the membership generation: every mutation bumps it under mu
	// before purging qc. A search stamps itself with the generation it
	// snapshotted under and stores its ranking only if that is still
	// current, so a search that straddles a mutation cannot re-insert a
	// pre-mutation ranking after the purge.
	gen uint64
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
	c.mu.RLock()
	cacheSet, cacheCap := c.docCacheSet, c.docCacheCap
	planSet, planCap := c.planCacheSet, c.planCacheCap
	c.mu.RUnlock()
	if cacheSet {
		doc.SetCache(cacheCap)
	}
	if planSet {
		doc.SetPlanCache(planCap)
	}
	return nil
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
	old := c.members[i].doc.Load()
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
	c.gen++
	c.mu.Unlock()
	if qc := c.qc.Load(); qc != nil {
		qc.Purge()
	}
	if old != nil {
		old.purgeCache()
	}
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
	old := c.members[i].doc.Load()
	// The incoming document is pinned even when it replaces a cold
	// member: Replace hands over a decoded document, not a snapshot.
	mem := &member{name: name}
	mem.doc.Store(doc)
	c.members[i] = mem
	c.gen++
	cacheSet, cacheCap := c.docCacheSet, c.docCacheCap
	planSet, planCap := c.planCacheSet, c.planCacheCap
	c.mu.Unlock()
	if cacheSet {
		doc.SetCache(cacheCap)
	}
	if planSet {
		doc.SetPlanCache(planCap)
	}
	if qc := c.qc.Load(); qc != nil {
		qc.Purge()
	}
	if old != nil {
		old.purgeCache()
	}
	return nil
}

// snapshot returns a consistent view of the membership for one search.
// The returned slices are private copies, so the holder is isolated from
// later mutations (which compact or rewrite the originals in place).
func (c *Collection) snapshot() (names []string, members []*member) {
	names, members, _ = c.snapshotGen()
	return names, members
}

// snapshotGen is snapshot plus the membership generation the view
// belongs to.
func (c *Collection) snapshotGen() (names []string, members []*member, gen uint64) {
	c.mu.RLock()
	names = append([]string(nil), c.names...)
	members = append([]*member(nil), c.members...)
	gen = c.gen
	c.mu.RUnlock()
	return names, members, gen
}

// putIfCurrent stores a search's ranking unless the membership has
// changed since the search took its snapshot. The check and the put
// share the read lock: a mutation bumps gen under the write lock and
// purges afterwards, so a put either sees the new generation and is
// dropped, or lands before the purge and is swept by it.
func (c *Collection) putIfCurrent(qc *qcache.Cache, gen uint64, key string, val []CollectionAnswer) {
	c.mu.RLock()
	if c.gen == gen {
		qc.Put(key, val)
	}
	c.mu.RUnlock()
}

// residentDocs returns the currently decoded member documents, the set
// cache configuration and statistics aggregation walk: cold members
// have no caches or planner state, and walking them must not fault
// them in.
func (c *Collection) residentDocs() []*Document {
	_, members := c.snapshot()
	docs := make([]*Document, 0, len(members))
	for _, m := range members {
		if d := m.doc.Load(); d != nil {
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
	c.qc.Store(qcache.New(capacity))
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
	// Resident documents are reconfigured now; cold ones pick the
	// remembered capacity up at fault-in.
	for _, d := range c.residentDocs() {
		d.SetCache(capacity)
	}
}

// SetPlanCaches resizes (or, with capacity <= 0, disables) the
// plan-template cache of every member document; see
// Document.SetPlanCache. The capacity is remembered: documents added or
// swapped in later get the same plan-cache sizing, so PlanCacheStats
// covers the whole live corpus.
func (c *Collection) SetPlanCaches(capacity int) {
	c.mu.Lock()
	c.planCacheCap = capacity
	c.planCacheSet = true
	c.mu.Unlock()
	for _, d := range c.residentDocs() {
		d.SetPlanCache(capacity)
	}
}

// PlanCacheStats sums the plan-template cache counters of every member
// document whose plan cache is enabled; ok is false when none is.
func (c *Collection) PlanCacheStats() (s PlanCacheStats, ok bool) {
	var sum PlanCacheStats
	any := false
	for _, d := range c.residentDocs() {
		if ds, dok := d.PlanCacheStats(); dok {
			sum.add(ds)
			any = true
		}
	}
	return sum, any
}

// CacheStats reports the collection-level cache counters; ok is false
// when no collection cache is enabled.
func (c *Collection) CacheStats() (s CacheStats, ok bool) {
	qc := c.qc.Load()
	if qc == nil {
		return CacheStats{}, false
	}
	return cacheStatsFrom(qc.Stats()), true
}

// DocumentCacheStats sums the cache counters of every member document
// that has a cache enabled; ok is false when none does.
func (c *Collection) DocumentCacheStats() (s CacheStats, ok bool) {
	var sum CacheStats
	any := false
	for _, d := range c.residentDocs() {
		if ds, dok := d.CacheStats(); dok {
			sum.add(ds)
			any = true
		}
	}
	return sum, any
}

// FullTextCacheStats sums the full-text result cache counters of the
// resident member documents (see Document.FullTextCacheStats).
func (c *Collection) FullTextCacheStats() CacheStats {
	var sum CacheStats
	for _, d := range c.residentDocs() {
		sum.add(d.FullTextCacheStats())
	}
	return sum
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
	if opts.K <= 0 {
		opts.K = 10
	}
	if opts.Offset < 0 {
		opts.Offset = 0
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	span := obs.SpanFrom(ctx)

	qc := c.qc.Load()
	useCache := qc != nil && !opts.NoCache
	var key string
	if useCache {
		key = searchCacheKey(q, opts)
		var tCache time.Time
		if span != nil {
			tCache = time.Now()
		}
		v, ok := qc.Get(key)
		if span != nil {
			span.Rec(obs.StageCache, time.Since(tCache))
		}
		if ok {
			span.MarkCacheHit()
			if opts.Metrics != nil {
				*opts.Metrics = Metrics{}
			}
			// Hand out a deep copy: callers may re-sort or truncate the
			// slice and mutate each answer's Relaxed strings; a shallow
			// copy would let that poison every later hit.
			return copyCollectionAnswers(v.([]CollectionAnswer)), nil
		}
	}

	// One consistent membership view for the whole search: a concurrent
	// Add/Remove/Replace neither blocks behind this search nor changes
	// which documents it evaluates.
	names, members, gen := c.snapshotGen()

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
		sub.Metrics = nil
		if opts.Metrics != nil {
			sub.Metrics = &perMet[i]
		}
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
	for i := range members {
		if perErr[i] != nil {
			return nil, fmt.Errorf("flexpath: document %q: %w", names[i], perErr[i])
		}
		if opts.Metrics != nil {
			opts.Metrics.add(perMet[i])
		}
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
	if useCache {
		if c.beforePut != nil {
			c.beforePut()
		}
		// Store a deep copy so the caller's slice (returned below) and
		// the cached ranking share no mutable state.
		c.putIfCurrent(qc, gen, key, copyCollectionAnswers(all))
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
	m.PairsMaterialized += o.PairsMaterialized
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
	for _, d := range c.residentDocs() {
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
