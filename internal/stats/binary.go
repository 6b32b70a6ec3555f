package stats

import (
	"fmt"
	"io"

	"flexpath/internal/varint"
	"flexpath/internal/xmltree"
)

// Legacy varint format for document statistics: the statistics section
// of an FXP2 snapshot — the tag counts, then each pair list as a count
// and (a, b, value) triples. Read-only, like the rest of FXP2.
var statsMagic = [4]byte{'F', 'X', 'S', '1'}

// ReadStatsBinary restores statistics for doc from an FXS1 stream:
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
