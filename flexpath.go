// Package flexpath is a Go implementation of FleXPath (Amer-Yahia,
// Lakshmanan, Pandit; SIGMOD 2004): flexible structure and full-text
// querying for XML.
//
// FleXPath treats the structural part of an XPath query as a template
// rather than a hard constraint. A tree pattern query with full-text
// contains predicates is evaluated against the space of its relaxations —
// parent-child edges generalized to ancestor-descendant, subtrees promoted
// past intermediate nodes, optional leaves deleted, contains predicates
// promoted to wider contexts — and answers are ranked by how much of the
// original structure they preserve (structural score) together with their
// full-text relevance (keyword score).
//
// Basic use:
//
//	doc, err := flexpath.LoadFile("articles.xml")
//	q, err := flexpath.ParseQuery(
//	    `//article[./section[./paragraph and .contains("XML" and "streaming")]]`)
//	answers, err := doc.Search(q, flexpath.SearchOptions{K: 10})
//
// The paper's three top-K algorithms are provided: DPO evaluates
// increasingly relaxed queries one at a time, while SSO and Hybrid encode
// a statically chosen set of relaxations into a single scored join plan
// (Hybrid additionally avoids SSO's score resorting via predicate-set
// buckets). All three return the same answers; they differ in evaluation
// cost. A fourth strategy, DataRelaxation, reproduces the baseline the
// paper's related work dismisses.
package flexpath

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"flexpath/internal/core"
	"flexpath/internal/exec"
	"flexpath/internal/ir"
	"flexpath/internal/mmapio"
	"flexpath/internal/obs"
	"flexpath/internal/plancache"
	"flexpath/internal/planner"
	"flexpath/internal/qcache"
	"flexpath/internal/rank"
	"flexpath/internal/stats"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

// Algorithm selects the top-K evaluation algorithm.
type Algorithm int

const (
	// Auto is the default: a cost-based planner predicts the evaluation
	// cost of DPO, SSO and Hybrid for each query and dispatches to the
	// winner, calibrating its model from observed run times. The answers
	// are identical to any fixed choice; Metrics.Algorithm reports which
	// algorithm ran, and PlannerStats exposes the planner's state.
	Auto Algorithm = iota
	// Hybrid is SSO's single-plan evaluation with bucketized (never
	// resorted) intermediate answers.
	Hybrid
	// SSO encodes estimator-chosen relaxations into a single plan with
	// score-sorted intermediate answers.
	SSO
	// DPO evaluates one relaxation at a time until K answers accumulate.
	DPO
	// DataRelaxation is the baseline strategy the paper surveys (§7,
	// APPROXML): materialize the document's shortcut-edge closure and
	// evaluate the original query over it. It fails on large documents
	// (the materialization exceeds its budget), reproducing the
	// behavior the paper reports for this strategy. Auto never picks it.
	DataRelaxation
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Hybrid:
		return "Hybrid"
	case SSO:
		return "SSO"
	case DPO:
		return "DPO"
	case DataRelaxation:
		return "DataRelaxation"
	default:
		return "Auto"
	}
}

// ParseAlgorithm parses an algorithm name.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "auto":
		return Auto, nil
	case "hybrid":
		return Hybrid, nil
	case "sso":
		return SSO, nil
	case "dpo":
		return DPO, nil
	case "datarelaxation", "datarelax", "data":
		return DataRelaxation, nil
	}
	return 0, fmt.Errorf("flexpath: unknown algorithm %q", s)
}

// Scheme selects how structural and keyword scores combine (§4.3 of the
// paper).
type Scheme int

const (
	// StructureFirst ranks by (structural, keyword) lexicographically.
	StructureFirst Scheme = iota
	// KeywordFirst ranks by (keyword, structural) lexicographically.
	KeywordFirst
	// Combined ranks by the sum of the two scores.
	Combined
)

// String implements fmt.Stringer.
func (s Scheme) String() string { return s.rank().String() }

func (s Scheme) rank() rank.Scheme {
	switch s {
	case KeywordFirst:
		return rank.KeywordFirst
	case Combined:
		return rank.Combined
	default:
		return rank.StructureFirst
	}
}

// ParseScheme parses a scheme name ("structure-first", "keyword-first",
// "combined").
func ParseScheme(s string) (Scheme, error) {
	r, err := rank.ParseScheme(s)
	if err != nil {
		return 0, err
	}
	switch r {
	case rank.KeywordFirst:
		return KeywordFirst, nil
	case rank.Combined:
		return Combined, nil
	default:
		return StructureFirst, nil
	}
}

// Weights assigns predicate weights for scoring. The zero value means
// uniform unit weights, the assignment used throughout the paper.
type Weights struct {
	// Structural is the weight of each structural predicate (default 1).
	Structural float64
	// Contains is the weight of each contains predicate (default 1, the
	// paper's fixed choice).
	Contains float64
}

func (w Weights) rank() rank.Weights {
	rw := rank.UniformWeights()
	if w.Structural > 0 {
		rw.Structural = w.Structural
	}
	if w.Contains > 0 {
		rw.Contains = w.Contains
	}
	return rw
}

// Query is a compiled tree pattern query.
type Query struct {
	q   *tpq.Query
	src string
}

// ParseQuery compiles a query in the mini-XPath syntax, e.g.
//
//	//article[.//algorithm and ./section[./paragraph and
//	          .contains("XML" and "streaming")]]
//
// Predicates are combined with "and"; ".contains(expr)" performs full-text
// search (supporting "a" and "b", or, quoted phrases, and near(a b, 5)
// proximity); "@attr op value" compares attributes. Answers are matches of
// the last step of the outer path.
func ParseQuery(src string) (*Query, error) {
	q, err := tpq.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Query{q: q, src: src}, nil
}

// MustParseQuery is ParseQuery but panics on error.
func MustParseQuery(src string) *Query {
	q, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Minimize returns the unique minimal equivalent query (the core of the
// query's closure, Theorem 1 of the paper): redundant structural and
// contains predicates are removed. Minimization never changes a query's
// answers.
func (q *Query) Minimize() (*Query, error) {
	minimal, err := tpq.Minimize(q.q)
	if err != nil {
		return nil, err
	}
	return &Query{q: minimal, src: q.src}, nil
}

// String returns the parsed query rendered back to query syntax.
func (q *Query) String() string { return q.q.String() }

// Vars returns the number of query variables.
func (q *Query) Vars() int { return q.q.Size() }

// Document is a queryable XML document: the parsed tree plus the full-text
// index and the statistics the ranking and estimation layers need. It is
// safe for concurrent searches.
type Document struct {
	tree  *xmltree.Document
	index *ir.Index
	stats *stats.Stats
	est   *stats.Estimator
	ev    *exec.Evaluator
	// pl is the document's cost-based planner: Auto searches consult it
	// and feed their observed run times back into its calibrator.
	pl *planner.Planner

	// pc is the plan-template cache: a bounded, sharded LRU mapping the
	// normalized (query, weights, hierarchy) triple to a core.Template
	// (relaxation chain + memoized join plans + memoized prefix levels),
	// with single-flight construction so concurrent misses on one shape
	// build it exactly once. Enabled with DefaultPlanCacheCapacity by
	// default; see SetPlanCache. Nil means disabled (every search builds
	// a fresh template).
	pc atomic.Pointer[plancache.Cache]

	// qc, when set, caches finished top-K result sets keyed by the
	// normalized query and search options; see SetCache.
	qc atomic.Pointer[qcache.Cache]
	// cacheGen counts purgeCache calls (the document left its
	// collection). A search that was in flight across one must not leave
	// its result set behind in the purged cache; see SearchContext.
	cacheGen atomic.Uint64
	// beforeCachePut, when set (tests only), runs between a search's
	// evaluation and its cache put.
	beforeCachePut func()

	// mp, when the document was loaded from an mmap'd FXP3 snapshot,
	// is the file mapping the document's columns and strings alias.
	// It must stay open while the document (or anything derived from
	// it — answers, snippets) is reachable; Close releases it.
	mp *mmapio.Mapping
}

// Load parses an XML document from r and builds its indexes.
func Load(r io.Reader) (*Document, error) {
	t, err := xmltree.Parse(r)
	if err != nil {
		return nil, err
	}
	return NewDocument(t), nil
}

// LoadString parses an XML document held in a string.
func LoadString(s string) (*Document, error) {
	t, err := xmltree.ParseString(s)
	if err != nil {
		return nil, err
	}
	return NewDocument(t), nil
}

// LoadFile parses the XML document at path.
func LoadFile(path string) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// LoadAuto loads path as a snapshot when it carries a snapshot magic and
// as XML otherwise. FXP3 snapshots are mapped; legacy FXP2 snapshots are
// read and decoded; a plain FXT1 tree snapshot is ErrLegacySnapshot.
func LoadAuto(path string) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// io.ReadFull, not Read: a plain Read may legally return fewer than 4
	// bytes without an error even on a longer file, which would misroute
	// a genuine snapshot to the XML parser. Files shorter than the magic
	// (ErrUnexpectedEOF, or EOF for an empty file) cannot be snapshots
	// and fall through to XML parsing, which reports its own error.
	var magic [4]byte
	n, err := io.ReadFull(f, magic[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	switch snapshotMagic(magic[:n]) {
	case "FXP3":
		// Reopen via the mmap path so the document serves file-backed.
		return LoadFXP3SnapshotFile(path)
	case "FXP2":
		data, err := io.ReadAll(f)
		if err != nil {
			return nil, err
		}
		d, err := loadIndexedSnapshot(data)
		return d, wrapSnapshotPath(path, err)
	case "FXT1":
		return nil, wrapSnapshotPath(path, ErrLegacySnapshot)
	}
	return Load(f)
}

// DocumentOptions configures index construction.
type DocumentOptions struct {
	// BM25 selects Okapi BM25 term weighting for keyword scores instead
	// of the default tf-idf. Match sets are identical; only keyword
	// scores (and thus keyword-first / combined rankings) differ.
	BM25 bool
}

// LoadWithOptions is Load with explicit index options.
func LoadWithOptions(r io.Reader, o DocumentOptions) (*Document, error) {
	t, err := xmltree.Parse(r)
	if err != nil {
		return nil, err
	}
	return newDocument(t, o), nil
}

// NewDocument wraps an already-parsed tree (e.g. one produced by the
// xmark generator's Build) with the indexes searching needs.
func NewDocument(t *xmltree.Document) *Document {
	return newDocument(t, DocumentOptions{})
}

func newDocument(t *xmltree.Document, o DocumentOptions) *Document {
	iopt := ir.IndexOptions{}
	if o.BM25 {
		iopt.Scoring = ir.ScoringBM25
	}
	ix := ir.NewIndexOptions(t, iopt)
	st := stats.Collect(t)
	est := stats.NewEstimator(st, ix)
	d := &Document{
		tree:  t,
		index: ix,
		stats: st,
		est:   est,
		pl:    planner.New(est),
		ev:    exec.NewEvaluator(t, ix),
	}
	d.pc.Store(plancache.New(DefaultPlanCacheCapacity))
	return d
}

// Nodes returns the number of element nodes.
func (d *Document) Nodes() int { return d.tree.Len() }

// Tree exposes the underlying document tree (read-only).
func (d *Document) Tree() *xmltree.Document { return d.tree }

// Answer is one ranked search result.
type Answer struct {
	// Path is the root-to-answer tag path, e.g. "/site/regions/asia/item".
	Path string
	// Tag is the answer element's tag.
	Tag string
	// ID is the answer element's id attribute, when present.
	ID string
	// Structural and Keyword are the answer's two score components.
	Structural float64
	Keyword    float64
	// Relaxations is the relaxation level that admitted the answer
	// (0 = exact match of the original query).
	Relaxations int
	// Relaxed describes the relaxations this answer needed (why it is
	// not an exact match), cheapest first. Populated by the SSO and
	// Hybrid algorithms; DPO reports only the level.
	Relaxed []string

	node xmltree.NodeID
	doc  *Document
	expr ir.Expr
}

// Snippet returns up to n bytes of the answer subtree's text, centered
// on the first occurrence of the query's full-text terms when the query
// has a contains predicate. n <= 0 asks for no text and returns ""
// (both snippet paths agree on this; neither emits a bare ellipsis).
// Truncation never splits a multi-byte UTF-8 rune (a split rune would
// be mangled to U+FFFD by JSON encoding).
func (a Answer) Snippet(n int) string {
	if n <= 0 {
		return ""
	}
	if a.expr != nil {
		return a.doc.index.Snippet(a.node, a.expr, n)
	}
	s := a.doc.tree.SubtreeText(a.node)
	if len(s) > n {
		s = s[:ir.SnapRuneDown(s, n)] + "…"
	}
	return s
}

// XML serializes the answer element.
func (a Answer) XML() string {
	var sb strings.Builder
	_ = a.doc.tree.WriteXML(&sb, a.node)
	return sb.String()
}

// Metrics reports the work a search performed; see the paper's §6 for how
// these counters separate the algorithms.
type Metrics struct {
	QueriesEvaluated   int
	PlansRun           int
	RelaxationsEncoded int
	Restarts           int
	TuplesGenerated    int
	TuplesPruned       int
	SortedTuples       int
	Buckets            int
	PairsMaterialized  int
	// Algorithm names the algorithm that evaluated the search — under
	// Auto, the planner's per-query choice; otherwise the requested
	// algorithm. Collection searches whose member documents chose
	// differently report "mixed". Cache hits report the algorithm that
	// produced the cached result.
	Algorithm string
	// AlgoReason explains an Auto choice (the planner's predicted level,
	// costs and reason key); empty for fixed algorithms.
	AlgoReason string
}

// SearchOptions configures Search. The zero value asks for the top 10
// answers with the Auto algorithm (cost-based per-query choice among
// DPO, SSO and Hybrid) under the structure-first scheme.
type SearchOptions struct {
	K int
	// Offset skips the first Offset answers of the ranking (pagination):
	// the returned slice covers ranks Offset+1 .. Offset+K.
	Offset    int
	Algorithm Algorithm
	Scheme    Scheme
	Weights   Weights
	// Parallel fans join-plan execution out over this many goroutines;
	// 0 or 1 runs sequentially. Results are identical either way.
	Parallel int
	// Workers bounds how many documents a Collection.Search evaluates
	// concurrently: 0 uses GOMAXPROCS, 1 forces sequential evaluation.
	// The merged ranking is identical at every setting (per-document
	// results are combined in insertion order with deterministic
	// tie-breaking). Document.Search ignores this field.
	Workers int
	// NoCache bypasses any query-result cache enabled with SetCache for
	// this call: the search is evaluated from scratch and its result is
	// not stored. Benchmarks measuring algorithm cost set this.
	NoCache bool
	// Hierarchy maps tags to their supertype (§3.4 of the paper). When
	// set, a query node constrained to a tag also matches elements whose
	// tag is any transitive subtype: querying //publication[...] with
	// {"article": "publication"} matches article elements too.
	Hierarchy map[string]string
	// Metrics, when non-nil, receives work counters.
	Metrics *Metrics
}

// Search returns the top-K answers of q over the document under the
// paper's relaxation semantics: exact matches first, then answers of
// increasingly relaxed versions of the query, ranked by the selected
// scheme.
func (d *Document) Search(q *Query, opts SearchOptions) ([]Answer, error) {
	return d.SearchContext(context.Background(), q, opts)
}

// SearchContext is Search with cancellation: the evaluation loops of all
// algorithms (join pipelines, DPO's per-relaxation loop) poll ctx and
// abandon the search once it is cancelled or times out, returning
// ctx.Err(). Cancelled searches are never cached.
func (d *Document) SearchContext(ctx context.Context, q *Query, opts SearchOptions) ([]Answer, error) {
	if opts.K <= 0 {
		opts.K = 10
	}
	if opts.Offset < 0 {
		opts.Offset = 0
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The observability span (if the caller started one) rides the
	// context; every use below is nil-guarded so an uninstrumented
	// search pays only this lookup.
	span := obs.SpanFrom(ctx)

	qc := d.qc.Load()
	useCache := qc != nil && !opts.NoCache
	cacheGen := d.cacheGen.Load()
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
			cs := v.(cachedSearch)
			// A hit performs no evaluation work, so the work counters
			// report zero (cache effectiveness is reported via
			// CacheStats); the algorithm that produced the cached result
			// is still named.
			if opts.Metrics != nil {
				*opts.Metrics = Metrics{Algorithm: cs.algo, AlgoReason: cs.reason}
			}
			return d.buildAnswers(q, cs.results, opts), nil
		}
	}

	var tChain time.Time
	if span != nil {
		tChain = time.Now()
	}
	// The StageChain span prices template acquisition: on a plan-cache hit
	// it collapses to a cache lookup, which is the point of the cache.
	tmpl, err := d.template(q, opts.Weights, opts.Hierarchy)
	if span != nil {
		span.Rec(obs.StageChain, time.Since(tChain))
	}
	if err != nil {
		return nil, err
	}
	chain := tmpl.Chain
	topts := topkOptions(ctx, opts)
	topts.opts.Template = tmpl
	var results []topkResult
	algoName, algoReason := opts.Algorithm.String(), ""
	switch opts.Algorithm {
	case Hybrid:
		results = runHybrid(d, chain, topts)
	case DPO:
		results = runDPO(d, chain, topts)
	case SSO:
		results = runSSO(d, chain, topts)
	case DataRelaxation:
		results, err = runDataRelax(d, chain, topts)
		if err != nil {
			return nil, err
		}
	default: // Auto
		var choice planner.Choice
		results, choice = runAuto(d, chain, topts)
		algoName, algoReason = choice.Algo.String(), choice.Explain
	}
	// A cancelled run returns truncated results; surface the error
	// instead of caching or reporting them.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	span.SetRelaxations(topts.opts.Metrics.RelaxationsEncoded)
	if opts.Metrics != nil {
		*opts.Metrics = topts.export()
		opts.Metrics.Algorithm = algoName
		opts.Metrics.AlgoReason = algoReason
	}
	if useCache {
		if d.beforeCachePut != nil {
			d.beforeCachePut()
		}
		qc.Put(key, cachedSearch{results: results, algo: algoName, reason: algoReason})
		// purgeCache bumps the generation before it purges, so a put
		// that lost the race to a purge sees the bump here and undoes
		// itself; one that won is swept by the purge.
		if d.cacheGen.Load() != cacheGen {
			qc.Purge()
		}
	}
	return d.buildAnswers(q, results, opts), nil
}

// cachedSearch is a document-cache entry: the result set plus the
// algorithm that produced it, so cache hits can still name it.
type cachedSearch struct {
	results []topkResult
	algo    string
	reason  string
}

// PlannerStats snapshots the cost-based planner behind Auto searches:
// per-algorithm choice and reason counters, the calibrated
// nanoseconds-per-unit scales with their current calibration error, and
// the restart-rate EWMA feeding the guard that demotes plan-based
// choices to DPO. See internal/planner for the model.
type PlannerStats struct {
	Choices          map[string]uint64  `json:"choices"`
	Reasons          map[string]uint64  `json:"reasons"`
	NsPerUnit        map[string]float64 `json:"ns_per_unit"`
	CalibrationError map[string]float64 `json:"calibration_error"`
	RestartRate      float64            `json:"restart_rate"`
	Observations     uint64             `json:"observations"`
}

// PlannerStats reports the document's planner state. All-empty maps and
// zero counters mean no Auto search has run yet.
func (d *Document) PlannerStats() PlannerStats {
	return plannerStatsFrom(d.pl.Snapshot())
}

func plannerStatsFrom(s planner.Stats) PlannerStats {
	return PlannerStats{
		Choices:          s.Choices,
		Reasons:          s.Reasons,
		NsPerUnit:        s.NsPerUnit,
		CalibrationError: s.CalibrationError,
		RestartRate:      s.RestartRate,
		Observations:     s.Observations,
	}
}

// buildAnswers converts internal results into public answers, applying
// pagination. Cached result slices are never mutated: the offset is taken
// by re-slicing, each call allocates fresh Answer values, and the Missed
// slices shared with the cache are copied before they are handed out as
// Answer.Relaxed — a caller mutating Relaxed must not poison later cache
// hits.
func (d *Document) buildAnswers(q *Query, results []topkResult, opts SearchOptions) []Answer {
	if opts.Offset > 0 {
		if opts.Offset >= len(results) {
			results = nil
		} else {
			results = results[opts.Offset:]
		}
	}
	var snippetExpr ir.Expr
	for i := range q.q.Nodes {
		if len(q.q.Nodes[i].Contains) > 0 {
			snippetExpr = q.q.Nodes[i].Contains[0]
			break
		}
	}
	answers := make([]Answer, len(results))
	for i, r := range results {
		id, _ := d.tree.Attr(r.Node, "id")
		var relaxed []string
		if len(r.Missed) > 0 {
			relaxed = append([]string(nil), r.Missed...)
		}
		answers[i] = Answer{
			Path:        d.tree.Path(r.Node),
			Tag:         d.tree.TagName(r.Node),
			ID:          id,
			Structural:  r.Score.SS,
			Keyword:     r.Score.KS,
			Relaxations: r.Relaxations,
			Relaxed:     relaxed,
			node:        r.Node,
			doc:         d,
			expr:        snippetExpr,
		}
	}
	return answers
}

// SetCache enables an in-memory query-result cache holding up to
// capacity result sets; capacity <= 0 disables caching. The cache is
// sharded and safe for concurrent searches. Keys cover everything that
// determines a result set (normalized query, algorithm, scheme, K,
// offset, weights, hierarchy), so differently-shaped requests never
// collide; Parallel and Workers do not affect answers and are excluded.
// Documents are immutable, so entries never go stale.
func (d *Document) SetCache(capacity int) {
	if capacity <= 0 {
		d.qc.Store(nil)
		return
	}
	d.qc.Store(qcache.New(capacity))
}

// purgeCache discards the document's cache entries — result sets and
// plan templates — keeping both caches enabled and their counters
// intact. Collections call this when the document leaves the corpus, so
// a long-gone member doesn't pin result sets or join plans.
func (d *Document) purgeCache() {
	d.cacheGen.Add(1)
	if qc := d.qc.Load(); qc != nil {
		qc.Purge()
	}
	if pc := d.pc.Load(); pc != nil {
		pc.Purge()
	}
}

// CacheStats reports the document cache's hit/miss/eviction counters;
// ok is false when no cache is enabled.
func (d *Document) CacheStats() (s CacheStats, ok bool) {
	qc := d.qc.Load()
	if qc == nil {
		return CacheStats{}, false
	}
	return cacheStatsFrom(qc.Stats()), true
}

// FullTextCacheStats reports the counters of the document's full-text
// result cache: the bounded LRU of evaluated contains expressions inside
// its index, which NoCache does not bypass (plans hold its entries).
func (d *Document) FullTextCacheStats() CacheStats {
	return cacheStatsFrom(d.index.CacheStats())
}

// CacheStats is a snapshot of a query-result cache's counters.
type CacheStats struct {
	// Hits and Misses count Get outcomes; Evictions counts entries
	// displaced by the LRU policy.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Entries is the current size; Capacity the effective maximum: the
	// configured capacity rounded up to a whole number of entries per
	// cache shard (see qcache.New).
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

func cacheStatsFrom(s qcache.Stats) CacheStats {
	return CacheStats{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Evictions: s.Evictions,
		Entries:   s.Entries,
		Capacity:  s.Capacity,
	}
}

func (s *CacheStats) add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Entries += o.Entries
	s.Capacity += o.Capacity
}

// searchCacheKey normalizes the aspects of a search that determine its
// result set. The query is keyed by its canonical serialization, so
// syntactic variants of the same pattern share an entry. User-controlled
// components (the query text and the hierarchy map) are length-prefixed:
// a bare separator would let adversarial tag or hierarchy names alias
// two distinct searches onto one cache entry, poisoning every later hit.
func searchCacheKey(q *Query, opts SearchOptions) string {
	rw := opts.Weights.rank()
	canon := q.q.Canon()
	h := hierarchyKey(opts.Hierarchy)
	return fmt.Sprintf("%d:%s|%s|%s|k=%d|o=%d|w=%g,%g|h=%d:%s",
		len(canon), canon, opts.Algorithm, opts.Scheme, opts.K, opts.Offset,
		rw.Structural, rw.Contains, len(h), h)
}

// hierarchyKey canonicalizes a type-hierarchy map (order-independent).
// Each name is length-prefixed so names containing the pair and list
// separators ('>', ';') cannot make two different maps render the same
// key: the encoding is unambiguously parseable, hence injective.
func hierarchyKey(hierarchy map[string]string) string {
	if len(hierarchy) == 0 {
		return ""
	}
	pairs := make([]string, 0, len(hierarchy))
	for t, s := range hierarchy {
		pairs = append(pairs, fmt.Sprintf("%d:%s>%d:%s", len(t), t, len(s), s))
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ";")
}

// RelaxationStep describes one level of a query's relaxation chain.
type RelaxationStep struct {
	// Level is the 1-based chain position.
	Level int
	// Description names the relaxation operator applied, e.g.
	// "generalize edge description/parlist".
	Description string
	// Penalty is the structural score lost by this relaxation.
	Penalty float64
	// Score is the structural score of answers first admitted here.
	Score float64
	// Query is the relaxed query.
	Query string
}

// RelaxationsOpts configures Relaxations the same way SearchOptions
// configures Search: the chain a search evaluates depends on both, so an
// inspection of the chain must be able to match the search exactly. The
// zero value means uniform unit weights and no type hierarchy.
type RelaxationsOpts struct {
	// Weights assigns the predicate weights the penalties and scores are
	// computed under (the same field as SearchOptions.Weights).
	Weights Weights
	// Hierarchy maps tags to their supertype; see SearchOptions.Hierarchy.
	Hierarchy map[string]string
}

// Relaxations returns the query's full relaxation chain over this
// document: the ordered sequence of structure/contains relaxations, from
// cheapest to most drastic, with their penalties. Level 0 (the exact
// query) is not included. Penalties and scores use uniform unit weights;
// use RelaxationsWith to inspect the chain a weighted search evaluates.
func (d *Document) Relaxations(q *Query) ([]RelaxationStep, error) {
	return d.RelaxationsWithContext(context.Background(), q, RelaxationsOpts{})
}

// RelaxationsContext is Relaxations with cancellation: the context is
// checked before and after the (potentially expensive) chain build, so
// a timed-out request releases its worker instead of formatting a chain
// nobody will read.
func (d *Document) RelaxationsContext(ctx context.Context, q *Query) ([]RelaxationStep, error) {
	return d.RelaxationsWithContext(ctx, q, RelaxationsOpts{})
}

// RelaxationsWith is Relaxations under explicit weights and hierarchy,
// so the reported penalties and scores match what a Search with the same
// options ranks by.
func (d *Document) RelaxationsWith(q *Query, opts RelaxationsOpts) ([]RelaxationStep, error) {
	return d.RelaxationsWithContext(context.Background(), q, opts)
}

// RelaxationsWithContext is RelaxationsWith with cancellation; see
// RelaxationsContext.
func (d *Document) RelaxationsWithContext(ctx context.Context, q *Query, opts RelaxationsOpts) ([]RelaxationStep, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tmpl, err := d.template(q, opts.Weights, opts.Hierarchy)
	if err != nil {
		return nil, err
	}
	chain := tmpl.Chain
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	steps := make([]RelaxationStep, len(chain.Steps))
	for i, s := range chain.Steps {
		steps[i] = RelaxationStep{
			Level:       i + 1,
			Description: s.Desc,
			Penalty:     s.Penalty,
			Score:       s.SS,
			Query:       s.Query.String(),
		}
	}
	return steps, nil
}

// ExplainPlan returns a human-readable description of the evaluation SSO
// and Hybrid would perform for the query under the given options: which
// relaxations the selectivity estimator decides to encode and the shape
// of the scored join plan.
func (d *Document) ExplainPlan(q *Query, opts SearchOptions) (string, error) {
	return d.ExplainPlanContext(context.Background(), q, opts)
}

// ExplainPlanContext is ExplainPlan with cancellation; see
// RelaxationsContext.
func (d *Document) ExplainPlanContext(ctx context.Context, q *Query, opts SearchOptions) (string, error) {
	if opts.K <= 0 {
		opts.K = 10
	}
	if err := ctx.Err(); err != nil {
		return "", err
	}
	tmpl, err := d.template(q, opts.Weights, opts.Hierarchy)
	if err != nil {
		return "", err
	}
	if err := ctx.Err(); err != nil {
		return "", err
	}
	b := topkOptions(ctx, opts)
	b.opts.Template = tmpl
	return explainPlan(d, tmpl.Chain, b)
}

// AnalyzePlan executes the plan the Hybrid algorithm would run for the
// query and returns a per-join-step trace: candidate list sizes,
// intermediate tuple counts, pruning and bucket activity (an EXPLAIN
// ANALYZE for flexible queries).
func (d *Document) AnalyzePlan(q *Query, opts SearchOptions) (string, error) {
	if opts.K <= 0 {
		opts.K = 10
	}
	tmpl, err := d.template(q, opts.Weights, opts.Hierarchy)
	if err != nil {
		return "", err
	}
	b := topkOptions(context.Background(), opts)
	b.opts.Template = tmpl
	return analyzePlan(d, tmpl.Chain, b)
}

// DefaultPlanCacheCapacity is the plan-template cache capacity a new
// Document starts with; see SetPlanCache. Entries are heavyweight (a
// relaxation chain plus memoized join plans with their candidate lists),
// so the default favors boundedness over reach.
const DefaultPlanCacheCapacity = 256

// SetPlanCache resizes the document's plan-template cache to hold up to
// capacity templates; capacity <= 0 disables it (every search then
// builds its chain and plans from scratch). Resizing installs a fresh
// cache, discarding current entries and counters. Answers are identical
// at every setting; the cache only amortizes chain building, relaxation
// enumeration and plan construction across searches of the same shape.
func (d *Document) SetPlanCache(capacity int) {
	if capacity <= 0 {
		d.pc.Store(nil)
		return
	}
	d.pc.Store(plancache.New(capacity))
}

// PlanCacheStats reports the plan-template cache counters; ok is false
// when the cache has been disabled with SetPlanCache(0).
func (d *Document) PlanCacheStats() (s PlanCacheStats, ok bool) {
	pc := d.pc.Load()
	if pc == nil {
		return PlanCacheStats{}, false
	}
	return planCacheStatsFrom(pc.Stats()), true
}

// PlanCacheStats is a snapshot of a plan-template cache's counters.
type PlanCacheStats struct {
	// Hits and Misses count template lookups; Evictions counts templates
	// displaced by the LRU policy; Dedups counts lookups that coalesced
	// onto another goroutine's in-flight build instead of building again
	// (N concurrent misses on one query shape = 1 miss + N-1 dedups).
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Dedups    uint64 `json:"dedups"`
	// Entries is the current size; Capacity the effective maximum (the
	// configured capacity rounded up to whole entries per shard).
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

func planCacheStatsFrom(s plancache.Stats) PlanCacheStats {
	return PlanCacheStats{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Evictions: s.Evictions,
		Dedups:    s.Dedups,
		Entries:   s.Entries,
		Capacity:  s.Capacity,
	}
}

func (s *PlanCacheStats) add(o PlanCacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Dedups += o.Dedups
	s.Entries += o.Entries
	s.Capacity += o.Capacity
}

// templateKey is the plan-template cache key: everything that determines
// a chain (and hence its plans). The canon is length-prefixed like
// searchCacheKey's: a quoted term containing '|' must not alias two
// different (query, weights, hierarchy) triples onto one template.
func templateKey(q *Query, rw rank.Weights, hierarchy map[string]string) string {
	canon := q.q.Canon()
	return fmt.Sprintf("%d:%s|%g|%g|%s", len(canon), canon, rw.Structural, rw.Contains, hierarchyKey(hierarchy))
}

// template returns the plan template for (q, w, hierarchy): the
// relaxation chain plus memoized per-level plans and prefix levels.
// With the plan cache enabled the template is shared across searches of
// the same shape and built exactly once even under concurrent misses
// (single-flight); with it disabled a fresh template is built per call
// (still deduplicating work within the one search that holds it).
func (d *Document) template(q *Query, w Weights, hierarchy map[string]string) (*core.Template, error) {
	rw := w.rank()
	build := func() (any, error) {
		var h *tpq.Hierarchy
		if len(hierarchy) > 0 {
			h = tpq.NewHierarchy(hierarchy)
		}
		c, err := core.BuildChainH(d.tree, d.index, d.stats, rw, q.q, h)
		if err != nil {
			return nil, err
		}
		return core.NewTemplate(c), nil
	}
	if pc := d.pc.Load(); pc != nil {
		v, err := pc.Do(templateKey(q, rw, hierarchy), build)
		if err != nil {
			return nil, err
		}
		return v.(*core.Template), nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	return v.(*core.Template), nil
}

// chain returns the relaxation chain for (q, w); kept for callers that
// need only the chain (benchmarks, Relaxations).
func (d *Document) chain(q *Query, w Weights) (*core.Chain, error) {
	t, err := d.template(q, w, nil)
	if err != nil {
		return nil, err
	}
	return t.Chain, nil
}
