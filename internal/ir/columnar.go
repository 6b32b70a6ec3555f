package ir

import (
	"fmt"
	"math"
	"sort"

	"flexpath/internal/fxp3"
	"flexpath/internal/qcache"
	"flexpath/internal/xmltree"
)

// Columnar (FXP3) persistence for the inverted index. The postings —
// the index's dominant memory — are written as one flat array of
// (node, pos) pairs that DecodeColumnar views in place over the mmap'd
// snapshot: each term's []posting is a subslice of the mapped bytes, and
// term strings intern the term blob without copying. Only the lookup
// maps (term → postings/df, node → length) live on the heap.
//
// Payload layout (fxp3.Enc framing):
//
//	u64 scoring, u64 textNodes, f64 avgLen
//	u64 numNodeLens
//	col nlNode [numNodeLens]i32   sorted by node
//	col nlLen  [numNodeLens]i32
//	u64 numTerms
//	col termOff [numTerms+1]u64   offsets into termBlob (terms sorted)
//	col termBlob
//	col df      [numTerms]i32
//	col postOff [numTerms+1]u64   prefix posting counts
//	col postings [total]{i32 node, i32 pos}

// EncodeColumnar renders the index as an FXP3 index-section payload.
func (ix *Index) EncodeColumnar() []byte {
	e := &fxp3.Enc{}
	e.U64(uint64(ix.scoring))
	e.U64(uint64(ix.textNodes))
	e.F64(ix.avgLen)

	nodes := make([]xmltree.NodeID, 0, len(ix.nodeLen))
	for n := range ix.nodeLen {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	lens := make([]int32, len(nodes))
	for i, n := range nodes {
		lens[i] = ix.nodeLen[n]
	}
	e.U64(uint64(len(nodes)))
	fxp3.ColI32(e, nodes)
	fxp3.ColI32(e, lens)

	terms := make([]string, 0, len(ix.post))
	for t := range ix.post {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	e.U64(uint64(len(terms)))
	termOff := make([]uint64, 0, len(terms)+1)
	termOff = append(termOff, 0)
	var termBlob []byte
	df := make([]int32, len(terms))
	postOff := make([]uint64, 0, len(terms)+1)
	postOff = append(postOff, 0)
	total := 0
	for i, t := range terms {
		termBlob = append(termBlob, t...)
		termOff = append(termOff, uint64(len(termBlob)))
		df[i] = int32(ix.df[t])
		total += len(ix.post[t])
		postOff = append(postOff, uint64(total))
	}
	fxp3.ColU64(e, termOff)
	e.Col(termBlob)
	fxp3.ColI32(e, df)
	fxp3.ColU64(e, postOff)
	flat := make([]posting, 0, total)
	for _, t := range terms {
		flat = append(flat, ix.post[t]...)
	}
	fxp3.RawI32Pairs(e, flat, func(i int) (uint32, uint32) {
		return uint32(flat[i].node), uint32(flat[i].pos)
	})
	return e.Finish()
}

// DecodeColumnar restores an index over doc from an EncodeColumnar
// payload, aliasing the posting array and term bytes in place. The
// caller must keep the payload's backing memory alive for the life of
// the index.
func DecodeColumnar(doc *xmltree.Document, payload []byte) (*Index, error) {
	dec := fxp3.NewDec(payload)
	scoring := dec.U64()
	textNodes := dec.U64()
	avgLen := dec.F64()
	numNodeLens := int(dec.U64())
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("ir: snapshot: %w", err)
	}
	if scoring > uint64(ScoringBM25) {
		return nil, fmt.Errorf("ir: snapshot: unknown scoring %d", scoring)
	}
	if math.IsNaN(avgLen) || avgLen < 0 {
		return nil, fmt.Errorf("ir: snapshot: invalid average length")
	}
	if numNodeLens > maxBinaryCount || int(textNodes) > maxBinaryCount {
		return nil, fmt.Errorf("ir: snapshot: implausible counts")
	}
	nlNode := fxp3.ViewI32[xmltree.NodeID](dec, numNodeLens)
	nlLen := fxp3.ViewI32[int32](dec, numNodeLens)
	numTerms := int(dec.U64())
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("ir: snapshot: %w", err)
	}
	if numTerms > maxBinaryCount {
		return nil, fmt.Errorf("ir: snapshot: implausible term count %d", numTerms)
	}
	termOff := fxp3.ViewU64[uint64](dec, numTerms+1)
	termBlob := dec.Col()
	df := fxp3.ViewI32[int32](dec, numTerms)
	postOff := fxp3.ViewU64[uint64](dec, numTerms+1)
	posts := fxp3.ViewI32Pairs(dec, -1, func(a, b uint32) posting {
		return posting{node: xmltree.NodeID(int32(a)), pos: int32(b)}
	})
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("ir: snapshot: %w", err)
	}

	ix := &Index{
		doc:       doc,
		post:      make(map[string][]posting, numTerms),
		df:        make(map[string]int, numTerms),
		nodeLen:   make(map[xmltree.NodeID]int32, numNodeLens),
		avgLen:    avgLen,
		textNodes: int(textNodes),
		scoring:   Scoring(scoring),
		cache:     qcache.New(resultCacheEntries),
	}
	for i := 0; i < numNodeLens; i++ {
		if int(nlNode[i]) < 0 || int(nlNode[i]) >= doc.Len() {
			return nil, fmt.Errorf("ir: snapshot: node %d out of range", nlNode[i])
		}
		ix.nodeLen[nlNode[i]] = nlLen[i]
	}
	for _, p := range posts {
		if int(p.node) < 0 || int(p.node) >= doc.Len() {
			return nil, fmt.Errorf("ir: snapshot: posting node %d out of range", p.node)
		}
	}
	for i := 0; i < numTerms; i++ {
		lo, hi := termOff[i], termOff[i+1]
		if lo > hi || hi > uint64(len(termBlob)) {
			return nil, fmt.Errorf("ir: snapshot: term table offsets out of range")
		}
		term, _ := fxp3.String(termBlob, lo, hi-lo)
		plo, phi := postOff[i], postOff[i+1]
		if plo > phi || phi > uint64(len(posts)) {
			return nil, fmt.Errorf("ir: snapshot: posting offsets out of range")
		}
		ix.post[term] = posts[plo:phi:phi]
		ix.df[term] = int(df[i])
	}
	return ix, nil
}
