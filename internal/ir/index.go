package ir

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"flexpath/internal/fxp3"
	"flexpath/internal/lru"
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
// by canonical form in an LRU of resultCacheEntries results, and
// concurrent evaluations of one expression run once.
//
// Its only representation is the column layout an FXP3 index section
// stores (see columnar.go): a sorted term dictionary looked up by binary
// search, one flat posting array, and the text nodes' token counts as a
// sorted column pair. The columns are heap slices when NewIndex built
// them and views over the snapshot when DecodeColumnar did.
type Index struct {
	doc *xmltree.Document
	// Text node nlNode[i] (ascending) holds nlLen[i] tokens.
	nlNode []xmltree.NodeID
	nlLen  []int32
	// Term i, in ascending order, is termBlob[termOff[i]:termOff[i+1]];
	// it occurs in df[i] nodes and its postings, in position order, are
	// posts[postOff[i]:postOff[i+1]].
	termOff  []uint64
	termBlob []byte
	df       []int32
	postOff  []uint64
	posts    []posting

	avgLen    float64
	textNodes int
	scoring   Scoring

	cache *lru.Cache[*Result] // keyed by canonical expression
}

// NewIndex tokenizes the direct text of every element and builds the
// inverted index with default (tf-idf) scoring.
func NewIndex(doc *xmltree.Document) *Index {
	return NewIndexOptions(doc, IndexOptions{})
}

// NewIndexOptions is NewIndex with explicit options.
func NewIndexOptions(doc *xmltree.Document, opt IndexOptions) *Index {
	ix := &Index{doc: doc, scoring: opt.Scoring, cache: lru.New[*Result](resultCacheEntries)}
	// One pass over the text assigns term ids in first-seen order and
	// records the id of every token; the posting array is then scattered
	// from that column, so the postings exist once.
	ids := make(map[string]int32)
	var terms []string
	var counts []uint64
	var tokens []int32
	var toks []string
	for n := xmltree.NodeID(0); int(n) < doc.Len(); n++ {
		text := doc.Text(n)
		if text == "" {
			continue
		}
		toks = appendTokens(toks[:0], text)
		ix.nlNode = append(ix.nlNode, n)
		ix.nlLen = append(ix.nlLen, int32(len(toks)))
		for _, tok := range toks {
			id, ok := ids[tok]
			if !ok {
				id = int32(len(terms))
				ids[tok] = id
				terms = append(terms, tok)
				counts = append(counts, 0)
			}
			counts[id]++
			tokens = append(tokens, id)
		}
	}
	ix.textNodes = len(ix.nlNode)
	if ix.textNodes > 0 {
		ix.avgLen = float64(len(tokens)) / float64(ix.textNodes)
	}

	order := make([]int32, len(terms))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(terms[a], terms[b]) })
	slot := make([]int32, len(terms)) // term id -> dictionary position
	next := make([]uint64, len(terms))
	ix.termOff = make([]uint64, 1, len(terms)+1)
	ix.postOff = make([]uint64, 1, len(terms)+1)
	for i, id := range order {
		slot[id] = int32(i)
		next[id] = ix.postOff[i]
		ix.termBlob = append(ix.termBlob, terms[id]...)
		ix.termOff = append(ix.termOff, uint64(len(ix.termBlob)))
		ix.postOff = append(ix.postOff, ix.postOff[i]+counts[id])
	}
	ix.df = make([]int32, len(terms))
	ix.posts = make([]posting, len(tokens))
	pos := 0
	for i, n := range ix.nlNode {
		for end := pos + int(ix.nlLen[i]); pos < end; pos++ {
			id := tokens[pos]
			at := next[id]
			if at == ix.postOff[slot[id]] || ix.posts[at-1].node != n {
				ix.df[slot[id]]++
			}
			ix.posts[at] = posting{node: n, pos: int32(pos)}
			next[id]++
		}
	}
	return ix
}

// term returns the dictionary position of word, or -1 when the document
// does not contain it.
func (ix *Index) term(word string) int {
	i, ok := sort.Find(len(ix.df), func(i int) int { return strings.Compare(word, ix.termAt(i)) })
	if !ok {
		return -1
	}
	return i
}

// termAt returns the i-th dictionary term as a view of the term blob.
func (ix *Index) termAt(i int) string {
	s, _ := fxp3.String(ix.termBlob, ix.termOff[i], ix.termOff[i+1]-ix.termOff[i])
	return s
}

// lookup returns word's occurrences in position order and its inverse
// document frequency, from one search of the dictionary.
func (ix *Index) lookup(word string) (posts []posting, idf float64) {
	df := 0
	if i := ix.term(word); i >= 0 {
		posts, df = ix.posts[ix.postOff[i]:ix.postOff[i+1]], int(ix.df[i])
	}
	return posts, math.Log(1 + float64(ix.textNodes)/float64(1+df))
}

// nodeLen returns the number of tokens directly inside node n.
func (ix *Index) nodeLen(n xmltree.NodeID) int32 {
	if i, ok := slices.BinarySearch(ix.nlNode, n); ok {
		return ix.nlLen[i]
	}
	return 0
}

// termScore weights tf occurrences in a node of a term with the given
// idf under the configured scoring function.
func (ix *Index) termScore(idf float64, node xmltree.NodeID, tf int) float64 {
	if ix.scoring == ScoringBM25 {
		const k1, b = 1.2, 0.75
		norm := 1 - b + b*float64(ix.nodeLen(node))/math.Max(ix.avgLen, 1)
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
	r, _ := ix.cache.Do(e.Canon(), func() (*Result, error) {
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
		return r, nil
	})
	return r
}

// CacheStats reports the evaluated-expression cache's counters.
func (ix *Index) CacheStats() lru.Stats { return ix.cache.Stats() }

// PurgeCache drops every evaluated expression, keeping the counters.
func (ix *Index) PurgeCache() { ix.cache.Purge() }

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
	posts, idf := ix.lookup(word)
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
		out = append(out, witness{node: n, score: ix.termScore(idf, n, tf)})
	}
	return out // in node order: a term's postings are (Validate)
}

func (ix *Index) evalPhrase(words []string) []witness {
	if len(words) == 0 {
		return nil
	}
	posts := make([][]posting, len(words))
	idfSum := 0.0
	for i, w := range words {
		var idf float64
		posts[i], idf = ix.lookup(w)
		idfSum += idf
	}
	var out []witness
	for _, p := range posts[0] {
		ok := true
		for off := 1; off < len(words); off++ {
			if !hasPos(posts[off], p.pos+int32(off)) {
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
	posts := make([][]posting, len(words))
	idfSum := 0.0
	for i, w := range words {
		var idf float64
		posts[i], idf = ix.lookup(w)
		idfSum += idf
	}
	// Every token participating in a qualifying window yields a witness
	// at its owning element, so a context containing any participant
	// satisfies the expression.
	var out []witness
	for ai, anchor := range words {
		for _, p := range posts[ai] {
			ok := true
			for i, w := range words {
				if w == anchor {
					continue
				}
				if !hasPosInRange(posts[i], p.pos-int32(window), p.pos+int32(window)) {
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
