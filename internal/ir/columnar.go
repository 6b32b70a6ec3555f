package ir

import (
	"fmt"
	"math"

	"flexpath/internal/fxp3"
	"flexpath/internal/xmltree"
)

// Columnar (FXP3) persistence for the inverted index. The index section
// is the Index's own columns written out, so DecodeColumnar over an
// mmap'd snapshot only slices: the dictionary, the posting array and the
// node lengths all alias the snapshot bytes and the heap holds the Index
// header and its (empty) result cache.
//
// Payload layout (fxp3.Enc framing):
//
//	u64 scoring, u64 textNodes, f64 avgLen
//	u64 numNodeLens
//	col nlNode [numNodeLens]i32   strictly increasing
//	col nlLen  [numNodeLens]i32
//	u64 numTerms
//	col termOff [numTerms+1]u64   offsets into termBlob
//	col termBlob                  terms strictly increasing
//	col df      [numTerms]i32     distinct nodes among the term's postings
//	col postOff [numTerms+1]u64   prefix posting counts
//	col postings [total]{i32 node, i32 pos}  per term: node non-decreasing,
//	                                         pos strictly increasing

// EncodeColumnar renders the index as an FXP3 index-section payload.
func (ix *Index) EncodeColumnar() []byte {
	e := &fxp3.Enc{}
	e.U64(uint64(ix.scoring))
	e.U64(uint64(ix.textNodes))
	e.F64(ix.avgLen)
	e.U64(uint64(len(ix.nlNode)))
	fxp3.ColI32(e, ix.nlNode)
	fxp3.ColI32(e, ix.nlLen)
	e.U64(uint64(len(ix.df)))
	fxp3.ColU64(e, ix.termOff)
	e.Col(ix.termBlob)
	fxp3.ColI32(e, ix.df)
	fxp3.ColU64(e, ix.postOff)
	fxp3.RawI32Pairs(e, ix.posts, func(i int) (uint32, uint32) {
		return uint32(ix.posts[i].node), uint32(ix.posts[i].pos)
	})
	return e.Finish()
}

// DecodeColumnar restores an index over doc from an EncodeColumnar
// payload by slicing its columns in place. The caller must keep the
// payload's backing memory alive for the life of the index, and must not
// search the index before Validate has passed once for this payload.
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
	if numNodeLens > fxp3.MaxCount || textNodes > fxp3.MaxCount {
		return nil, fmt.Errorf("ir: snapshot: implausible counts")
	}
	ix := &Index{
		doc:       doc,
		nlNode:    fxp3.ViewI32[xmltree.NodeID](dec, numNodeLens),
		nlLen:     fxp3.ViewI32[int32](dec, numNodeLens),
		avgLen:    avgLen,
		textNodes: int(textNodes),
		scoring:   Scoring(scoring),
	}
	numTerms := int(dec.U64())
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("ir: snapshot: %w", err)
	}
	if numTerms > fxp3.MaxCount {
		return nil, fmt.Errorf("ir: snapshot: implausible term count %d", numTerms)
	}
	ix.termOff = fxp3.ViewU64[uint64](dec, numTerms+1)
	ix.termBlob = dec.Col()
	ix.df = fxp3.ViewI32[int32](dec, numTerms)
	ix.postOff = fxp3.ViewU64[uint64](dec, numTerms+1)
	ix.posts = fxp3.ViewI32Pairs(dec, -1, func(a, b uint32) posting {
		return posting{node: xmltree.NodeID(int32(a)), pos: int32(b)}
	})
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("ir: snapshot: %w", err)
	}
	return ix, nil
}

// Validate checks every invariant lookups rely on: ranges, and the
// orderings that binary search over the dictionary, the node lengths and
// a term's positions needs. A column that broke one would not fail a
// search, it would answer it differently. It reads every column once, so
// the snapshot layer runs it once per payload and not per
// DecodeColumnar.
func (ix *Index) Validate() error {
	nodes := xmltree.NodeID(ix.doc.Len())
	prev := xmltree.NodeID(-1)
	for i, n := range ix.nlNode {
		if n <= prev || n >= nodes {
			return fmt.Errorf("ir: snapshot: text node %d out of range or out of order", n)
		}
		if ix.nlLen[i] < 0 {
			return fmt.Errorf("ir: snapshot: node %d has negative length %d", n, ix.nlLen[i])
		}
		prev = n
	}
	numTerms := len(ix.df)
	for i := 0; i < numTerms; i++ {
		if lo, hi := ix.termOff[i], ix.termOff[i+1]; lo > hi || hi > uint64(len(ix.termBlob)) {
			return fmt.Errorf("ir: snapshot: term table offsets out of range")
		}
		if i > 0 && ix.termAt(i-1) >= ix.termAt(i) {
			return fmt.Errorf("ir: snapshot: term %d out of order", i)
		}
		lo, hi := ix.postOff[i], ix.postOff[i+1]
		if lo > hi || hi > uint64(len(ix.posts)) {
			return fmt.Errorf("ir: snapshot: posting offsets out of range")
		}
		df, last := int32(0), posting{node: -1, pos: -1}
		for _, p := range ix.posts[lo:hi] {
			if p.node < 0 || p.node < last.node || p.node >= nodes || p.pos <= last.pos {
				return fmt.Errorf("ir: snapshot: posting (%d,%d) of term %d out of range or out of order", p.node, p.pos, i)
			}
			if p.node != last.node {
				df++
			}
			last = p
		}
		if ix.df[i] != df {
			return fmt.Errorf("ir: snapshot: term %d has document frequency %d over %d nodes", i, ix.df[i], df)
		}
	}
	return nil
}
