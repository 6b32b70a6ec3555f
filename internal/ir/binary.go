package ir

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"flexpath/internal/qcache"
	"flexpath/internal/xmltree"
)

// Binary persistence for the inverted index. Rebuilding the index from
// text is the second-largest load cost after XML parsing; a snapshot
// restores postings directly.
//
// Layout (unsigned varints unless noted):
//
//	magic "FXI1", scoring byte
//	textNodes, avgLen (float64 bits, fixed 8 bytes)
//	node length count, then (node, len) pairs with delta-encoded nodes
//	term count, then per term: name, df, posting count,
//	    postings as (node delta, pos delta) pairs
var indexMagic = [4]byte{'F', 'X', 'I', '1'}

// WriteBinary writes a snapshot of the index (excluding the document,
// which has its own snapshot format).
func (ix *Index) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(indexMagic[:]); err != nil {
		return err
	}
	bw.WriteByte(byte(ix.scoring)) //nolint:errcheck // surfaced by Flush
	writeUvarint(bw, uint64(ix.textNodes))
	var avg [8]byte
	binary.LittleEndian.PutUint64(avg[:], math.Float64bits(ix.avgLen))
	bw.Write(avg[:]) //nolint:errcheck

	nodes := make([]xmltree.NodeID, 0, len(ix.nodeLen))
	for n := range ix.nodeLen {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	writeUvarint(bw, uint64(len(nodes)))
	prev := uint64(0)
	for _, n := range nodes {
		writeUvarint(bw, uint64(n)-prev)
		prev = uint64(n)
		writeUvarint(bw, uint64(ix.nodeLen[n]))
	}

	terms := make([]string, 0, len(ix.post))
	for t := range ix.post {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	writeUvarint(bw, uint64(len(terms)))
	for _, t := range terms {
		writeString(bw, t)
		writeUvarint(bw, uint64(ix.df[t]))
		posts := ix.post[t]
		writeUvarint(bw, uint64(len(posts)))
		prevNode, prevPos := uint64(0), uint64(0)
		for _, p := range posts {
			writeUvarint(bw, uint64(p.node)-prevNode)
			prevNode = uint64(p.node)
			writeUvarint(bw, uint64(p.pos)-prevPos)
			prevPos = uint64(p.pos)
		}
	}
	return bw.Flush()
}

// ReadIndexBinary restores an index over doc from a WriteBinary stream.
// The document must be the same one the index was built from; snapshots
// do not verify this beyond node-range checks.
func ReadIndexBinary(doc *xmltree.Document, r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("ir: snapshot: %w", err)
	}
	if magic != indexMagic {
		return nil, errors.New("ir: not an index snapshot (bad magic)")
	}
	scoring, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("ir: snapshot: %w", err)
	}
	if scoring > byte(ScoringBM25) {
		return nil, fmt.Errorf("ir: snapshot: unknown scoring %d", scoring)
	}
	ix := &Index{
		doc:     doc,
		post:    make(map[string][]posting),
		df:      make(map[string]int),
		nodeLen: make(map[xmltree.NodeID]int32),
		scoring: Scoring(scoring),
		cache:   qcache.New(resultCacheEntries),
	}
	tn, err := readCount(br)
	if err != nil {
		return nil, err
	}
	ix.textNodes = tn
	var avg [8]byte
	if _, err := io.ReadFull(br, avg[:]); err != nil {
		return nil, fmt.Errorf("ir: snapshot: %w", err)
	}
	ix.avgLen = math.Float64frombits(binary.LittleEndian.Uint64(avg[:]))
	if math.IsNaN(ix.avgLen) || ix.avgLen < 0 {
		return nil, errors.New("ir: snapshot: invalid average length")
	}

	nNodes, err := readCount(br)
	if err != nil {
		return nil, err
	}
	node := uint64(0)
	for i := 0; i < nNodes; i++ {
		d, err := readCount(br)
		if err != nil {
			return nil, err
		}
		node += uint64(d)
		if node >= uint64(doc.Len()) {
			return nil, fmt.Errorf("ir: snapshot: node %d out of range", node)
		}
		l, err := readCount(br)
		if err != nil {
			return nil, err
		}
		ix.nodeLen[xmltree.NodeID(node)] = int32(l)
	}

	nTerms, err := readCount(br)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nTerms; i++ {
		term, err := readString(br)
		if err != nil {
			return nil, err
		}
		df, err := readCount(br)
		if err != nil {
			return nil, err
		}
		ix.df[term] = df
		nPosts, err := readCount(br)
		if err != nil {
			return nil, err
		}
		posts := make([]posting, nPosts)
		pn, pp := uint64(0), uint64(0)
		for j := 0; j < nPosts; j++ {
			dn, err := readCount(br)
			if err != nil {
				return nil, err
			}
			pn += uint64(dn)
			if pn >= uint64(doc.Len()) {
				return nil, fmt.Errorf("ir: snapshot: posting node %d out of range", pn)
			}
			dp, err := readCount(br)
			if err != nil {
				return nil, err
			}
			pp += uint64(dp)
			posts[j] = posting{node: xmltree.NodeID(pn), pos: int32(pp)}
		}
		ix.post[term] = posts
	}
	return ix, nil
}

const maxBinaryCount = 1 << 31

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) //nolint:errcheck // surfaced by the final Flush
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s) //nolint:errcheck
}

func readCount(r *bufio.Reader) (int, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("ir: snapshot: %w", err)
	}
	if v > maxBinaryCount {
		return 0, fmt.Errorf("ir: snapshot: implausible count %d", v)
	}
	return int(v), nil
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readCount(r)
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("ir: snapshot: %w", err)
	}
	return string(buf), nil
}
