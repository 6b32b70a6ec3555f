package ir

import (
	"math"
	"sort"
	"sync"

	"flexpath/internal/qcache"
	"flexpath/internal/xmltree"
)

// posting records one token occurrence: the element that directly owns the
// text and the token's global position (ordinal over all index terms in
// document order, used for phrase and proximity matching).
type posting struct {
	node xmltree.NodeID
	pos  int32
}

// Scoring selects the term-weighting function for witness scores. All
// scoring functions produce the same match (witness) sets; only scores —
// and thus keyword-score rankings — differ. The FleXPath paper treats the
// IR scoring function as a black box ("Numerous algorithms have been
// proposed in the IR community"), so both classical choices are offered.
type Scoring int8

const (
	// ScoringTFIDF weights a witness by idf(t)·(1+log tf), the default.
	ScoringTFIDF Scoring = iota
	// ScoringBM25 weights a witness by the Okapi BM25 formula with
	// k1=1.2, b=0.75, using the element's own token count as document
	// length.
	ScoringBM25
)

// IndexOptions configures index construction.
type IndexOptions struct {
	Scoring Scoring
}

// resultCacheEntries bounds the evaluated-expression cache of one index.
// A stream of never-repeated expressions used to grow it without limit;
// a relaxation chain and its plans touch a handful of expressions, so a
// thousand keeps every live query's results resident.
const resultCacheEntries = 1024

// Index is an element-level inverted index over a document. It is built
// once and safe for concurrent readers; expression evaluations are cached
// by canonical form in an LRU of resultCacheEntries results.
type Index struct {
	doc       *xmltree.Document
	post      map[string][]posting
	df        map[string]int
	nodeLen   map[xmltree.NodeID]int32
	avgLen    float64
	textNodes int
	scoring   Scoring

	cache *qcache.Cache // canonical expression -> *Result
}

// NewIndex tokenizes the direct text of every element and builds the
// inverted index with default (tf-idf) scoring.
func NewIndex(doc *xmltree.Document) *Index {
	return NewIndexOptions(doc, IndexOptions{})
}

// NewIndexOptions is NewIndex with explicit options.
func NewIndexOptions(doc *xmltree.Document, opt IndexOptions) *Index {
	ix := &Index{
		doc:     doc,
		post:    make(map[string][]posting),
		df:      make(map[string]int),
		nodeLen: make(map[xmltree.NodeID]int32),
		scoring: opt.Scoring,
		cache:   qcache.New(resultCacheEntries),
	}
	pos := int32(0)
	lastOwner := make(map[string]xmltree.NodeID)
	totalTokens := 0
	for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
		text := doc.Text(n)
		if text == "" {
			continue
		}
		ix.textNodes++
		toks := Tokenize(text)
		ix.nodeLen[n] = int32(len(toks))
		totalTokens += len(toks)
		for _, tok := range toks {
			ix.post[tok] = append(ix.post[tok], posting{node: n, pos: pos})
			if last, ok := lastOwner[tok]; !ok || last != n {
				ix.df[tok]++
				lastOwner[tok] = n
			}
			pos++
		}
	}
	if ix.textNodes > 0 {
		ix.avgLen = float64(totalTokens) / float64(ix.textNodes)
	}
	return ix
}

// termScore weights one term's occurrences in a node under the configured
// scoring function.
func (ix *Index) termScore(term string, node xmltree.NodeID, tf int) float64 {
	idf := ix.idf(term)
	if ix.scoring == ScoringBM25 {
		const k1, b = 1.2, 0.75
		norm := 1 - b + b*float64(ix.nodeLen[node])/math.Max(ix.avgLen, 1)
		return idf * (float64(tf) * (k1 + 1)) / (float64(tf) + k1*norm)
	}
	return idf * (1 + math.Log(float64(tf)))
}

// Doc returns the indexed document.
func (ix *Index) Doc() *xmltree.Document { return ix.doc }

// IsBM25 reports whether the index uses BM25 term weighting.
func (ix *Index) IsBM25() bool { return ix.scoring == ScoringBM25 }

// Result is the outcome of evaluating a full-text expression: the most
// specific elements satisfying it (in document order) with scores
// normalized to [0, 1]. A context node satisfies the expression iff its
// subtree contains at least one witness.
type Result struct {
	doc    *xmltree.Document
	nodes  []xmltree.NodeID
	scores []float64

	mu        sync.Mutex
	tagCounts map[string]int // memo of CountSatisfyingWithTag
}

// Len returns the number of witness elements.
func (r *Result) Len() int { return len(r.nodes) }

// Node returns the i-th witness in document order.
func (r *Result) Node(i int) xmltree.NodeID { return r.nodes[i] }

// Score returns the normalized score of the i-th witness.
func (r *Result) Score(i int) float64 { return r.scores[i] }

// firstWithin returns the index of the first witness >= x, for interval
// queries against the sorted witness list.
func (r *Result) firstWithin(x xmltree.NodeID) int {
	return sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i] >= x })
}

// Satisfies reports whether context node x satisfies the expression, i.e.
// whether x's subtree contains a witness.
func (r *Result) Satisfies(x xmltree.NodeID) bool {
	i := r.firstWithin(x)
	return i < len(r.nodes) && r.nodes[i] <= r.doc.End(x)
}

// ScoreWithin returns the keyword score of context node x: the maximum
// witness score within x's subtree, or 0 if x does not satisfy the
// expression.
func (r *Result) ScoreWithin(x xmltree.NodeID) float64 {
	end := r.doc.End(x)
	best := 0.0
	for i := r.firstWithin(x); i < len(r.nodes) && r.nodes[i] <= end; i++ {
		if r.scores[i] > best {
			best = r.scores[i]
		}
	}
	return best
}

// CountWithin returns the number of witnesses inside x's subtree. This is
// the #contains(x, FTExp) statistic of the paper's penalty formulas.
func (r *Result) CountWithin(x xmltree.NodeID) int {
	end := r.doc.End(x)
	i := r.firstWithin(x)
	j := i
	for j < len(r.nodes) && r.nodes[j] <= end {
		j++
	}
	return j - i
}

// Eval evaluates a full-text expression, returning its witness set.
// Results are cached per canonical form.
func (ix *Index) Eval(e Expr) *Result {
	key := e.Canon()
	if r, ok := ix.cache.Get(key); ok {
		return r.(*Result)
	}

	w := ix.eval(e)
	w = minimalFilter(ix.doc, w)
	normalize(w)
	r := &Result{doc: ix.doc}
	r.nodes = make([]xmltree.NodeID, len(w))
	r.scores = make([]float64, len(w))
	for i, x := range w {
		r.nodes[i] = x.node
		r.scores[i] = x.score
	}

	ix.cache.Put(key, r)
	return r
}

// CacheStats reports the evaluated-expression cache's counters.
func (ix *Index) CacheStats() qcache.Stats { return ix.cache.Stats() }

// CountSatisfyingWithTag counts the elements with the given tag that
// satisfy e. It backs the #contains statistics used in contains-promotion
// penalties.
func (ix *Index) CountSatisfyingWithTag(tag string, e Expr) int {
	return ix.Eval(e).CountSatisfyingWithTag(tag)
}

// CountSatisfyingWithTag counts the elements with the given tag whose
// subtree contains a witness: #contains(tag, E) of the penalty formulas.
// The count is computed once per tag — the denominator of one closure
// predicate's penalty is the numerator of its parent's, and the estimator
// asks again — by one merge of the tag's node list (document order)
// against the witness list.
func (r *Result) CountSatisfyingWithTag(tag string) int {
	r.mu.Lock()
	count, ok := r.tagCounts[tag]
	r.mu.Unlock()
	if ok {
		return count
	}
	w := 0
	for _, n := range r.doc.NodesWithTag(tag) {
		for w < len(r.nodes) && r.nodes[w] < n {
			w++
		}
		if w == len(r.nodes) {
			break
		}
		if r.nodes[w] <= r.doc.End(n) {
			count++
		}
	}
	r.mu.Lock()
	if r.tagCounts == nil {
		r.tagCounts = make(map[string]int)
	}
	r.tagCounts[tag] = count
	r.mu.Unlock()
	return count
}

// witness is an unnormalized (node, score) pair during evaluation.
type witness struct {
	node  xmltree.NodeID
	score float64
}

func (ix *Index) idf(term string) float64 {
	return math.Log(1 + float64(ix.textNodes)/float64(1+ix.df[term]))
}

func (ix *Index) eval(e Expr) []witness {
	switch t := e.(type) {
	case Term:
		return ix.evalTerm(t.Word)
	case Phrase:
		return ix.evalPhrase(t.Words)
	case Near:
		return ix.evalNear(t.Words, t.Window)
	case And:
		var cur []witness
		for i, c := range t.Exprs {
			w := minimalFilter(ix.doc, ix.eval(c))
			if i == 0 {
				cur = w
			} else {
				cur = ix.slca(cur, w)
			}
			if len(cur) == 0 {
				return nil
			}
		}
		return cur
	case Or:
		var all []witness
		for _, c := range t.Exprs {
			all = append(all, ix.eval(c)...)
		}
		sortWitnesses(all)
		return dedupMax(all)
	case AndNot:
		pos := minimalFilter(ix.doc, ix.eval(t.Pos))
		neg := minimalFilter(ix.doc, ix.eval(t.Neg))
		out := pos[:0:0]
		for _, p := range pos {
			if !anyWithin(ix.doc, neg, p.node) {
				out = append(out, p)
			}
		}
		return out
	default:
		return nil
	}
}

func (ix *Index) evalTerm(word string) []witness {
	posts := ix.post[word]
	if len(posts) == 0 {
		return nil
	}
	var out []witness
	i := 0
	for i < len(posts) {
		n := posts[i].node
		tf := 0
		for i < len(posts) && posts[i].node == n {
			tf++
			i++
		}
		out = append(out, witness{node: n, score: ix.termScore(word, n, tf)})
	}
	sortWitnesses(out)
	return out
}

func (ix *Index) evalPhrase(words []string) []witness {
	if len(words) == 0 {
		return nil
	}
	first := ix.post[words[0]]
	idfSum := 0.0
	for _, w := range words {
		idfSum += ix.idf(w)
	}
	var out []witness
	for _, p := range first {
		ok := true
		for off := 1; off < len(words); off++ {
			if !hasPos(ix.post[words[off]], p.pos+int32(off)) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, witness{node: p.node, score: idfSum})
		}
	}
	sortWitnesses(out)
	return dedupMax(out)
}

func (ix *Index) evalNear(words []string, window int) []witness {
	if len(words) == 0 {
		return nil
	}
	idfSum := 0.0
	for _, w := range words {
		idfSum += ix.idf(w)
	}
	// Every token participating in a qualifying window yields a witness
	// at its owning element, so a context containing any participant
	// satisfies the expression.
	var out []witness
	for _, anchor := range words {
		for _, p := range ix.post[anchor] {
			ok := true
			for _, w := range words {
				if w == anchor {
					continue
				}
				if !hasPosInRange(ix.post[w], p.pos-int32(window), p.pos+int32(window)) {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, witness{node: p.node, score: idfSum})
			}
		}
	}
	sortWitnesses(out)
	return dedupMax(out)
}

func hasPos(posts []posting, pos int32) bool {
	i := sort.Search(len(posts), func(i int) bool { return posts[i].pos >= pos })
	return i < len(posts) && posts[i].pos == pos
}

func hasPosInRange(posts []posting, lo, hi int32) bool {
	i := sort.Search(len(posts), func(i int) bool { return posts[i].pos >= lo })
	return i < len(posts) && posts[i].pos <= hi
}

// slca computes the smallest lowest common ancestors of one witness from
// each input (Xu & Papakonstantinou-style): for each witness of the
// smaller set, pair it with its nearest neighbors in the other set and
// take LCAs, then keep the minimal ones.
func (ix *Index) slca(a, b []witness) []witness {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	var cands []witness
	for _, s := range small {
		i := sort.Search(len(large), func(i int) bool { return large[i].node >= s.node })
		if i < len(large) {
			l := large[i]
			cands = append(cands, witness{node: ix.lca(s.node, l.node), score: s.score + l.score})
		}
		if i > 0 {
			l := large[i-1]
			cands = append(cands, witness{node: ix.lca(s.node, l.node), score: s.score + l.score})
		}
	}
	sortWitnesses(cands)
	cands = dedupMax(cands)
	return minimalFilter(ix.doc, cands)
}

func (ix *Index) lca(a, b xmltree.NodeID) xmltree.NodeID {
	d := ix.doc
	for d.Level(a) > d.Level(b) {
		a = d.Parent(a)
	}
	for d.Level(b) > d.Level(a) {
		b = d.Parent(b)
	}
	for a != b {
		a = d.Parent(a)
		b = d.Parent(b)
	}
	return a
}

func sortWitnesses(w []witness) {
	sort.Slice(w, func(i, j int) bool { return w[i].node < w[j].node })
}

// dedupMax collapses duplicate nodes in a sorted witness list, keeping the
// maximum score.
func dedupMax(w []witness) []witness {
	if len(w) == 0 {
		return w
	}
	out := w[:1]
	for _, x := range w[1:] {
		if x.node == out[len(out)-1].node {
			if x.score > out[len(out)-1].score {
				out[len(out)-1].score = x.score
			}
		} else {
			out = append(out, x)
		}
	}
	return out
}

// minimalFilter keeps only witnesses with no other witness inside their
// subtree. In a list sorted by start position, a node's descendants are
// contiguous immediately after it, so it suffices to test the next entry.
func minimalFilter(doc *xmltree.Document, w []witness) []witness {
	if len(w) <= 1 {
		return w
	}
	out := w[:0:0]
	for i := range w {
		if i+1 < len(w) && w[i+1].node <= doc.End(w[i].node) {
			continue
		}
		out = append(out, w[i])
	}
	return out
}

func anyWithin(doc *xmltree.Document, w []witness, x xmltree.NodeID) bool {
	i := sort.Search(len(w), func(i int) bool { return w[i].node >= x })
	return i < len(w) && w[i].node <= doc.End(x)
}

func normalize(w []witness) {
	maxScore := 0.0
	for _, x := range w {
		if x.score > maxScore {
			maxScore = x.score
		}
	}
	if maxScore <= 0 {
		for i := range w {
			w[i].score = 1
		}
		return
	}
	for i := range w {
		w[i].score /= maxScore
	}
}
