package stats

import (
	"fmt"
	"io"

	"flexpath/internal/varint"
	"flexpath/internal/xmltree"
)

// Binary persistence for document statistics. Collecting statistics walks
// every node's ancestor chain, which dominates snapshot-restore time for
// large documents; persisting the counts avoids it.
var statsMagic = [4]byte{'F', 'X', 'S', '1'}

// WriteBinary writes a snapshot of the statistics (excluding the
// document).
func (s *Stats) WriteBinary(w io.Writer) error {
	bw := varint.NewWriter(w, statsMagic)
	bw.Uvarint(uint64(len(s.tagCount)))
	for _, c := range s.tagCount {
		bw.Uvarint(c)
	}
	for _, p := range s.pairLists() {
		bw.Uvarint(uint64(len(p.a)))
		for i := range p.a {
			bw.Uvarint(uint64(p.a[i]))
			bw.Uvarint(uint64(p.b[i]))
			bw.Uvarint(p.v[i])
		}
	}
	return bw.Flush()
}

// ReadStatsBinary restores statistics for doc from a WriteBinary stream:
// it fills the columns from the stream and holds them to Validate.
func ReadStatsBinary(doc *xmltree.Document, r io.Reader) (*Stats, error) {
	br, err := varint.NewReader(r, "stats", statsMagic)
	if err != nil {
		return nil, err
	}
	nTags := br.Count()
	if br.Err() == nil && nTags != doc.NumTags() {
		return nil, fmt.Errorf("stats: snapshot has %d tags, document has %d", nTags, doc.NumTags())
	}
	s := &Stats{doc: doc, tagCount: make([]uint64, nTags)}
	for i := 0; i < nTags && br.Err() == nil; i++ {
		s.tagCount[i] = uint64(br.Count())
	}
	for _, p := range s.pairLists() {
		for i := br.Count(); i > 0 && br.Err() == nil; i-- {
			// Checked before the ids are narrowed to the column width;
			// the ordering check is Validate's.
			a, b := br.Count(), br.Count()
			if a >= nTags || b >= nTags {
				return nil, fmt.Errorf("stats: snapshot: tag pair (%d,%d) out of range", a, b)
			}
			p.a, p.b, p.v = append(p.a, xmltree.TagID(a)), append(p.b, xmltree.TagID(b)), append(p.v, uint64(br.Count()))
		}
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
