package ir

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"flexpath/internal/qcache"
	"flexpath/internal/varint"
	"flexpath/internal/xmltree"
)

// Legacy varint format for the inverted index: the index section of an
// FXP2 snapshot. Read-only, like the rest of FXP2.
//
// Layout (unsigned varints unless noted):
//
//	magic "FXI1", scoring byte
//	textNodes, avgLen (float64 bits, fixed 8 bytes)
//	node length count, then (node, len) pairs with delta-encoded nodes
//	term count, then per term: name, df, posting count,
//	    postings as (node delta, pos delta) pairs
var indexMagic = [4]byte{'F', 'X', 'I', '1'}

// ReadIndexBinary restores an index over doc from an FXI1 stream:
// it fills the columns from the stream and holds them to Validate. The
// document must be the same one the index was built from; snapshots do
// not verify this beyond node-range checks.
func ReadIndexBinary(doc *xmltree.Document, r io.Reader) (*Index, error) {
	br, err := varint.NewReader(r, "ir", indexMagic)
	if err != nil {
		return nil, err
	}
	var scoring [1]byte
	br.Fixed(scoring[:])
	if scoring[0] > byte(ScoringBM25) {
		return nil, fmt.Errorf("ir: snapshot: unknown scoring %d", scoring[0])
	}
	ix := &Index{doc: doc, scoring: Scoring(scoring[0]), cache: qcache.New(resultCacheEntries)}
	ix.textNodes = br.Count()
	var avg [8]byte
	br.Fixed(avg[:])
	ix.avgLen = math.Float64frombits(binary.LittleEndian.Uint64(avg[:]))
	if math.IsNaN(ix.avgLen) || ix.avgLen < 0 {
		return nil, fmt.Errorf("ir: snapshot: invalid average length")
	}

	// Node ids are range-checked here, before they are narrowed to the
	// column width; every other check is Validate's, on the filled columns.
	node, nodes := uint64(0), uint64(doc.Len())
	for i := br.Count(); i > 0 && br.Err() == nil; i-- {
		if node += uint64(br.Count()); node >= nodes {
			return nil, fmt.Errorf("ir: snapshot: node %d out of range", node)
		}
		ix.nlNode = append(ix.nlNode, xmltree.NodeID(node))
		ix.nlLen = append(ix.nlLen, int32(br.Count()))
	}

	ix.termOff = []uint64{0}
	ix.postOff = []uint64{0}
	for i := br.Count(); i > 0 && br.Err() == nil; i-- {
		ix.termBlob = br.AppendString(ix.termBlob)
		ix.termOff = append(ix.termOff, uint64(len(ix.termBlob)))
		ix.df = append(ix.df, int32(br.Count()))
		pn, pp := uint64(0), uint64(0)
		for j := br.Count(); j > 0 && br.Err() == nil; j-- {
			if pn += uint64(br.Count()); pn >= nodes {
				return nil, fmt.Errorf("ir: snapshot: posting node %d out of range", pn)
			}
			pp += uint64(br.Count())
			ix.posts = append(ix.posts, posting{node: xmltree.NodeID(pn), pos: int32(pp)})
		}
		ix.postOff = append(ix.postOff, uint64(len(ix.posts)))
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	if err := ix.Validate(); err != nil {
		return nil, err
	}
	return ix, nil
}
