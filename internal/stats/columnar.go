package stats

import (
	"fmt"

	"flexpath/internal/fxp3"
	"flexpath/internal/xmltree"
)

// Columnar (FXP3) persistence for document statistics. The stats section
// is the Stats' own columns written out — the per-tag counts and, for
// each of the four pair statistics, its (a, b, v) column triple sorted by
// (a, b) — so DecodeColumnar only slices, and the section can be
// validated without the tree (the tag count is stored inline).
//
// Payload layout (fxp3.Enc framing):
//
//	u64 numTags
//	col tagCount [numTags]u64
//	4 × pair list: u64 n, col a [n]i32, col b [n]i32, col v [n]u64
//	               (a, b) strictly increasing

// EncodeColumnar renders the statistics as an FXP3 stats-section payload.
func (s *Stats) EncodeColumnar() []byte {
	e := &fxp3.Enc{}
	e.U64(uint64(len(s.tagCount)))
	fxp3.ColU64(e, s.tagCount)
	for _, p := range s.pairLists() {
		e.U64(uint64(len(p.a)))
		fxp3.ColI32(e, p.a)
		fxp3.ColI32(e, p.b)
		fxp3.ColU64(e, p.v)
	}
	return e.Finish()
}

// DecodeColumnar restores statistics for doc from an EncodeColumnar
// payload by slicing its columns in place. The caller must keep the
// payload's backing memory alive for the life of the statistics, and must
// not read them before Validate has passed once for this payload.
func DecodeColumnar(doc *xmltree.Document, payload []byte) (*Stats, error) {
	dec := fxp3.NewDec(payload)
	nTags := int(dec.U64())
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("stats: snapshot: %w", err)
	}
	if nTags != doc.NumTags() {
		return nil, fmt.Errorf("stats: snapshot has %d tags, document has %d", nTags, doc.NumTags())
	}
	s := &Stats{doc: doc, tagCount: fxp3.ViewU64[uint64](dec, nTags)}
	for _, p := range s.pairLists() {
		n := int(dec.U64())
		if err := dec.Err(); err != nil {
			return nil, fmt.Errorf("stats: snapshot: %w", err)
		}
		if n > fxp3.MaxCount {
			return nil, fmt.Errorf("stats: snapshot: implausible count %d", n)
		}
		p.a = fxp3.ViewI32[xmltree.TagID](dec, n)
		p.b = fxp3.ViewI32[xmltree.TagID](dec, n)
		p.v = fxp3.ViewU64[uint64](dec, n)
	}
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("stats: snapshot: %w", err)
	}
	return s, nil
}

// Validate checks that every pair names tags of the document and that
// each list is strictly increasing in (a, b), which the binary search in
// pairs.get needs. The snapshot layer runs it once per payload.
func (s *Stats) Validate() error {
	nTags := xmltree.TagID(len(s.tagCount))
	for _, p := range s.pairLists() {
		for i := range p.a {
			a, b := p.a[i], p.b[i]
			if a < 0 || a >= nTags || b < 0 || b >= nTags {
				return fmt.Errorf("stats: snapshot: tag pair (%d,%d) out of range", a, b)
			}
			if i > 0 && (p.a[i-1] > a || p.a[i-1] == a && p.b[i-1] >= b) {
				return fmt.Errorf("stats: snapshot: tag pair (%d,%d) out of order", a, b)
			}
		}
	}
	return nil
}
