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
//	doc, err := flexpath.LoadAuto("articles.xml")
//	q, err := flexpath.ParseQuery(
//	    `//article[./section[./paragraph and .contains("XML" and "streaming")]]`)
//	answers, err := doc.Search(q, flexpath.SearchOptions{K: 10})
//
// The paper's three top-K algorithms are provided: DPO evaluates
// increasingly relaxed queries one at a time, while SSO and Hybrid encode
// a statically chosen set of relaxations into a single scored join plan
// (Hybrid additionally avoids SSO's score resorting via predicate-set
// buckets). All three return the same answers; they differ in evaluation
// cost.
package flexpath

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"flexpath/internal/core"
	"flexpath/internal/ir"
	"flexpath/internal/lru"
	"flexpath/internal/mmapio"
	"flexpath/internal/rank"
	"flexpath/internal/stats"
	"flexpath/internal/topk"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

// Algorithm selects the top-K evaluation algorithm.
type Algorithm int

const (
	// Auto is the default. It runs Hybrid when the scheme is KeywordFirst
	// and the query has a contains predicate, and DPO otherwise. The
	// choice depends on nothing but the query and the scheme, so every
	// collection member and every repeat of a search runs the same
	// algorithm, and the ranking is exactly that algorithm's (under DPO
	// answers carry no Relaxed detail). Metrics.Algorithm reports which
	// algorithm ran.
	Auto Algorithm = iota
	// Hybrid is SSO's single-plan evaluation with bucketized (never
	// resorted) intermediate answers.
	Hybrid
	// SSO encodes estimator-chosen relaxations into a single plan with
	// score-sorted intermediate answers.
	SSO
	// DPO evaluates one relaxation at a time until K answers accumulate.
	DPO
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
	// canon is q's canonical serialization, rendered once: the result
	// cache and plan-template keys read it on every search.
	canon string
	// shape is q's closure universe and relaxation skeletons, built on
	// the first template miss (a cached search never needs it) and
	// shared by the chain builds of every document the query is
	// searched over.
	shapeOnce sync.Once
	shape     *core.Shape
	shapeErr  error
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
	return &Query{q: q, src: src, canon: q.Canon()}, nil
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
	return &Query{q: minimal, src: q.src, canon: minimal.Canon()}, nil
}

// String returns the parsed query rendered back to query syntax.
func (q *Query) String() string { return q.q.String() }

// relaxShape returns the query's memoized relaxation shape.
func (q *Query) relaxShape() (*core.Shape, error) {
	q.shapeOnce.Do(func() { q.shape, q.shapeErr = core.NewShape(q.q) })
	return q.shape, q.shapeErr
}

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
	// serial identifies the document in result-cache parts (see part).
	serial uint64

	// pc is the plan-template cache, mapping the normalized (query,
	// weights, hierarchy) triple to a core.Template (relaxation chain +
	// memoized join plans + memoized prefix levels); its Do builds each
	// shape once under concurrent misses. It holds
	// DefaultPlanCacheCapacity templates.
	pc *lru.Cache[*core.Template]

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

// LoadAuto loads the document at path, deciding its format by its magic
// (see openFile): an FXP3 snapshot is mapped, an FXP2 or FXT1 snapshot
// of an older release is ErrLegacySnapshot, and anything else parses as
// XML.
func LoadAuto(path string) (*Document, error) {
	f, isFXP3, err := openFile(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if isFXP3 {
		// Reopen via the mmap path so the document serves file-backed.
		return LoadFXP3SnapshotFile(path)
	}
	return Load(f)
}

// openFile opens path and reads its magic with snapshotMagic, leaving
// the file at its start; a legacy snapshot is ErrLegacySnapshot naming
// the file. The extension plays no part. The caller closes f.
func openFile(path string) (f *os.File, isFXP3 bool, err error) {
	f, err = os.Open(path)
	if err != nil {
		return nil, false, err
	}
	// io.ReadFull, not Read: a plain Read may legally return fewer than 4
	// bytes without an error even on a longer file, which would misroute
	// a genuine snapshot to the XML parser. Files shorter than the magic
	// (ErrUnexpectedEOF, or EOF for an empty file) cannot be snapshots
	// and fall through to XML parsing, which reports its own error.
	var magic [4]byte
	n, err := io.ReadFull(f, magic[:])
	if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err == nil {
		if isFXP3, err = snapshotMagic(magic[:n]); err != nil {
			err = wrapSnapshotPath(path, err)
		}
	}
	if err != nil {
		f.Close()
		return nil, false, err
	}
	return f, isFXP3, nil
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
	return assembleDocument(t, stats.Collect(t), ix)
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
	// Algorithm names the algorithm that evaluated the search: under
	// Auto the one the rule chose, which every member of a collection
	// runs; otherwise the requested algorithm. Cache hits report it too.
	Algorithm string
	// AlgoReason names the branch of Auto's rule that chose Algorithm
	// ("keyword-first with contains" or "not keyword-first with
	// contains"); empty for fixed algorithms.
	AlgoReason string
}

// SearchOptions configures Search. The zero value asks for the top 10
// answers with the Auto algorithm under the structure-first scheme,
// which runs DPO.
type SearchOptions struct {
	K int
	// Offset skips the first Offset answers of the ranking (pagination):
	// the returned slice covers ranks Offset+1 .. Offset+K.
	Offset    int
	Algorithm Algorithm
	Scheme    Scheme
	Weights   Weights
	// Workers bounds how many documents a Collection.Search evaluates
	// concurrently: 0 uses GOMAXPROCS, 1 forces sequential evaluation.
	// The merged ranking is identical at every setting (per-document
	// results are combined in insertion order with deterministic
	// tie-breaking). Document.Search ignores this field.
	Workers int
	// NoCache bypasses the collection's result cache (Collection.SetCache)
	// for this call: the search is evaluated from scratch and its result
	// is not stored. Document.Search has no result cache, so it ignores
	// this field. Benchmarks measuring algorithm cost set this.
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
// ctx.Err(). A direct search caches no results; a Collection does.
func (d *Document) SearchContext(ctx context.Context, q *Query, opts SearchOptions) ([]Answer, error) {
	return search(ctx, nil, lone{d}, q, opts, func(_ int, a Answer) Answer { return a })
}

// purgeCache discards the entries of both of the document's caches, the
// full-text results and the plan templates, keeping their counters
// intact, when the document leaves a collection; the purge epoch keeps
// searches already running from re-populating them.
func (d *Document) purgeCache() {
	d.index.PurgeCache()
	d.pc.Purge()
}

// CacheStats always reports ok=false: a document has no result cache
// (Collection.SetCache is the only one). It is kept only because the
// frozen benchmark harness still calls it, and goes with that call.
func (d *Document) CacheStats() (s CacheStats, ok bool) { return CacheStats{}, false }

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
	// Entries is the current size; Capacity the configured maximum.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// cacheStatsFrom and PlanCacheStats(s) are the only conversions from the
// one internal counter set to the two public shapes.
func cacheStatsFrom(s lru.Stats) CacheStats {
	return CacheStats{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Evictions: s.Evictions,
		Entries:   s.Entries,
		Capacity:  s.Capacity,
	}
}

// statsOf snapshots a cache that may be disabled (nil).
func statsOf[V any](c *lru.Cache[V]) (lru.Stats, bool) {
	if c == nil {
		return lru.Stats{}, false
	}
	return c.Stats(), true
}

// searchCacheKey normalizes the aspects of a search that determine its
// result set. The query is keyed by its canonical serialization, so
// syntactic variants of the same pattern share an entry. User-controlled
// components (the query text and the hierarchy map) are length-prefixed:
// a bare separator would let adversarial tag or hierarchy names alias
// two distinct searches onto one cache entry, poisoning every later hit.
func searchCacheKey(q *Query, opts SearchOptions) string {
	rw := opts.Weights.rank()
	h := hierarchyKey(opts.Hierarchy)
	return fmt.Sprintf("%d:%s|%s|%s|k=%d|o=%d|w=%g,%g|h=%d:%s",
		len(q.canon), q.canon, opts.Algorithm, opts.Scheme, opts.K, opts.Offset,
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

// Relaxations returns the query's full relaxation chain over this
// document: the ordered sequence of structure/contains relaxations, from
// cheapest to most drastic, with their penalties. Level 0 (the exact
// query) is not included. Of opts it reads only Weights and Hierarchy,
// the two options that determine a chain, so the steps are those a
// Search with the same options evaluates and ranks by. The context is
// checked before and after the (potentially expensive) chain build, so a
// timed-out request releases its worker instead of formatting a chain
// nobody will read.
func (d *Document) Relaxations(ctx context.Context, q *Query, opts SearchOptions) ([]RelaxationStep, error) {
	tmpl, _, err := d.inspect(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	steps := make([]RelaxationStep, len(tmpl.Chain.Steps))
	for i, s := range tmpl.Chain.Steps {
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
// of the scored join plan. Cancellation is checked as in Relaxations.
func (d *Document) ExplainPlan(ctx context.Context, q *Query, opts SearchOptions) (string, error) {
	tmpl, topts, err := d.inspect(ctx, q, opts)
	if err != nil {
		return "", err
	}
	return topk.Explain(tmpl.Chain, d.est, topts)
}

// AnalyzePlan executes the plan the Hybrid algorithm would run for the
// query and returns a per-join-step trace: candidate list sizes,
// intermediate tuple counts, pruning and bucket activity (an EXPLAIN
// ANALYZE for flexible queries). The execution polls ctx like a search
// and returns ctx.Err() once it is cancelled.
func (d *Document) AnalyzePlan(ctx context.Context, q *Query, opts SearchOptions) (string, error) {
	tmpl, topts, err := d.inspect(ctx, q, opts)
	if err != nil {
		return "", err
	}
	return topk.Analyze(tmpl.Chain, d.est, topts)
}

// inspect is the shared head of the inspection verbs: the template a
// search with opts uses, built between two cancellation checks, and the
// options that search would hand the algorithms.
func (d *Document) inspect(ctx context.Context, q *Query, opts SearchOptions) (*core.Template, topk.Options, error) {
	opts.defaults()
	if err := ctx.Err(); err != nil {
		return nil, topk.Options{}, err
	}
	tmpl, err := d.template(q, opts.Weights, opts.Hierarchy)
	if err != nil {
		return nil, topk.Options{}, err
	}
	return tmpl, topkOptions(ctx, opts, tmpl), ctx.Err()
}

// DefaultPlanCacheCapacity is the plan-template cache capacity of every
// Document. Entries are heavyweight (a relaxation chain plus memoized
// join plans with their candidate lists), so it favors boundedness over
// reach. Answers do not depend on it: the cache only amortizes chain
// building, relaxation enumeration and plan construction across searches
// of the same shape.
const DefaultPlanCacheCapacity = 256

// PlanCacheStats reports the plan-template cache counters; every
// document has the cache, so ok is always true.
func (d *Document) PlanCacheStats() (s PlanCacheStats, ok bool) {
	return PlanCacheStats(d.pc.Stats()), true
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
	// Entries is the current size; Capacity the configured maximum. The
	// fields mirror lru.Stats one for one, so PlanCacheStats(s) converts.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// templateKey is the plan-template cache key: everything that determines
// a chain (and hence its plans). The canon is length-prefixed like
// searchCacheKey's: a quoted term containing '|' must not alias two
// different (query, weights, hierarchy) triples onto one template.
func templateKey(q *Query, rw rank.Weights, hierarchy map[string]string) string {
	return fmt.Sprintf("%d:%s|%g|%g|%s", len(q.canon), q.canon, rw.Structural, rw.Contains, hierarchyKey(hierarchy))
}

// template returns the plan template for (q, w, hierarchy): the
// relaxation chain plus memoized per-level plans and prefix levels. The
// template is shared across searches of the same shape through the plan
// cache and built exactly once even under concurrent misses
// (single-flight).
func (d *Document) template(q *Query, w Weights, hierarchy map[string]string) (*core.Template, error) {
	rw := w.rank()
	return d.keyedTemplate(templateKey(q, rw, hierarchy), q, rw, hierarchy)
}

// keyedTemplate is template with the key already rendered: a search
// renders it once for all its members.
func (d *Document) keyedTemplate(key string, q *Query, rw rank.Weights, hierarchy map[string]string) (*core.Template, error) {
	return d.pc.Do(key, func() (*core.Template, error) {
		var h *tpq.Hierarchy
		if len(hierarchy) > 0 {
			h = tpq.NewHierarchy(hierarchy)
		}
		s, err := q.relaxShape()
		if err != nil {
			return nil, err
		}
		c, err := s.Chain(d.tree, d.index, d.stats, rw, h)
		if err != nil {
			return nil, err
		}
		return core.NewTemplate(c), nil
	})
}
