package xmltree

import (
	"fmt"
	"slices"

	"flexpath/internal/fxp3"
)

// Columnar (FXP3) persistence for the node table. The tree section is
// the Document's own columns written out fixed-width and 8-byte aligned,
// so DecodeColumnar over an mmap'd snapshot only slices: every column
// and blob of the restored document aliases the snapshot bytes, and the
// heap holds the Document header and the tag table. The bulk (text
// bytes, node columns) stays file-backed and reclaimable by the kernel.
//
// Payload layout (fxp3.Enc framing):
//
//	u64 numTags, u64 numNodes, u64 numAttrs, u64 sourceBytes
//	col tagOff  [numTags+1]u64   offsets into tagBlob
//	col tagBlob
//	col nodeTag [numNodes]i32
//	col end     [numNodes]i32
//	col level   [numNodes]i32
//	col parent  [numNodes]i32
//	col textOff [numNodes+1]u64  offsets into textBlob
//	col textBlob
//	col attrCnt [numNodes+1]u64  prefix attribute counts
//	col attrOff [2*numAttrs+1]u64 offsets into attrBlob (name,value interleaved)
//	col attrBlob
//	col byTagOff[numTags+1]u64   prefix counts into byTagIDs
//	col byTagIDs[numNodes]i32    node lists grouped by tag, document order

// EncodeColumnar renders the document as an FXP3 tree-section payload.
func (d *Document) EncodeColumnar() []byte {
	e := &fxp3.Enc{}
	e.U64(uint64(len(d.tags)))
	e.U64(uint64(len(d.nodeTag)))
	e.U64(uint64(len(d.attrOff) / 2))
	e.U64(uint64(d.size))

	tagOff := make([]uint64, 0, len(d.tags)+1)
	var tagBlob []byte
	tagOff = append(tagOff, 0)
	for _, t := range d.tags {
		tagBlob = append(tagBlob, t...)
		tagOff = append(tagOff, uint64(len(tagBlob)))
	}
	fxp3.ColU64(e, tagOff)
	e.Col(tagBlob)

	fxp3.ColI32(e, d.nodeTag)
	fxp3.ColI32(e, d.end)
	fxp3.ColI32(e, d.level)
	fxp3.ColI32(e, d.parent)
	fxp3.ColU64(e, d.textOff)
	e.Col(d.textBlob)
	fxp3.ColU64(e, d.attrCnt)
	fxp3.ColU64(e, d.attrOff)
	e.Col(d.attrBlob)
	fxp3.ColU64(e, d.byTagOff)
	fxp3.ColI32(e, d.byTagIDs)
	return e.Finish()
}

// DecodeColumnar restores a document from an EncodeColumnar payload by
// slicing the payload's columns in place; only the tag table is built.
// The caller must keep the payload's backing memory (typically an mmap)
// alive for the life of the document and everything derived from it, and
// must not read the document before Validate has passed once for this
// payload: the per-node invariants are not checked here.
func DecodeColumnar(payload []byte) (*Document, error) {
	dec := fxp3.NewDec(payload)
	numTags := int(dec.U64())
	numNodes := int(dec.U64())
	numAttrs := int(dec.U64())
	size := dec.U64()
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("xmltree: snapshot: %w", err)
	}
	if numTags > fxp3.MaxCount || numNodes > fxp3.MaxCount || numAttrs > fxp3.MaxCount {
		return nil, fmt.Errorf("xmltree: snapshot: implausible counts (%d tags, %d nodes, %d attrs)",
			numTags, numNodes, numAttrs)
	}

	tagOff := fxp3.ViewU64[uint64](dec, numTags+1)
	tagBlob := dec.Col()
	d := &Document{
		tags:     make([]string, numTags),
		tagIDs:   make(map[string]TagID, numTags),
		nodeTag:  fxp3.ViewI32[TagID](dec, numNodes),
		end:      fxp3.ViewI32[NodeID](dec, numNodes),
		level:    fxp3.ViewI32[int32](dec, numNodes),
		parent:   fxp3.ViewI32[NodeID](dec, numNodes),
		textOff:  fxp3.ViewU64[uint64](dec, numNodes+1),
		textBlob: dec.Col(),
		attrCnt:  fxp3.ViewU64[uint64](dec, numNodes+1),
		attrOff:  fxp3.ViewU64[uint64](dec, 2*numAttrs+1),
		attrBlob: dec.Col(),
		byTagOff: fxp3.ViewU64[uint64](dec, numTags+1),
		byTagIDs: fxp3.ViewI32[NodeID](dec, numNodes),
		size:     int64(size),
	}
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("xmltree: snapshot: %w", err)
	}
	if !offsetsWithin(tagOff, uint64(len(tagBlob))) {
		return nil, fmt.Errorf("xmltree: snapshot: tag table offsets out of range")
	}
	for i := range d.tags {
		d.tags[i] = view(tagBlob, tagOff[i], tagOff[i+1])
		d.tagIDs[d.tags[i]] = TagID(i)
	}
	return d, nil
}

// offsetsWithin reports whether off, an offset column (never empty), is
// non-decreasing and ends within limit.
func offsetsWithin(off []uint64, limit uint64) bool {
	return slices.IsSorted(off) && off[len(off)-1] <= limit
}

// Validate checks every invariant the accessors and the join kernels
// rely on — the ones an out-of-range or out-of-order column value would
// turn into an out-of-bounds index or a silently different answer at
// query time. It reads every column once, so the snapshot layer runs it
// once per payload, next to the checksum, and not per DecodeColumnar.
func (d *Document) Validate() error {
	numNodes, numTags := len(d.nodeTag), len(d.tags)
	for n := 0; n < numNodes; n++ {
		if t := int(d.nodeTag[n]); t < 0 || t >= numTags {
			return fmt.Errorf("xmltree: snapshot: node %d has invalid tag %d", n, t)
		}
		if e := int(d.end[n]); e < n || e >= numNodes {
			return fmt.Errorf("xmltree: snapshot: node %d has invalid interval end %d", n, e)
		}
		p := int(d.parent[n])
		if p >= n || (p < 0 && !(n == 0 && p == -1)) {
			return fmt.Errorf("xmltree: snapshot: node %d has invalid parent %d", n, p)
		}
		// lca climbs by level, so a level that disagrees with the parent
		// column would walk it off the root.
		level := int32(0)
		if n > 0 {
			level = d.level[p] + 1
		}
		if d.level[n] != level {
			return fmt.Errorf("xmltree: snapshot: node %d has invalid level %d", n, d.level[n])
		}
	}
	if !offsetsWithin(d.textOff, uint64(len(d.textBlob))) {
		return fmt.Errorf("xmltree: snapshot: text offsets out of range")
	}
	if !offsetsWithin(d.attrCnt, uint64(len(d.attrOff)/2)) {
		return fmt.Errorf("xmltree: snapshot: attribute counts out of range")
	}
	if !offsetsWithin(d.attrOff, uint64(len(d.attrBlob))) {
		return fmt.Errorf("xmltree: snapshot: attribute offsets out of range")
	}
	if !offsetsWithin(d.byTagOff, uint64(numNodes)) || d.byTagOff[0] != 0 || d.byTagOff[numTags] != uint64(numNodes) {
		return fmt.Errorf("xmltree: snapshot: per-tag node lists out of range")
	}
	// Each tag's list holds exactly the nodes of that tag in document
	// order: the structural joins merge the lists and never look at the
	// tag column again.
	for t := 0; t < numTags; t++ {
		prev := NodeID(-1)
		for _, n := range d.byTagIDs[d.byTagOff[t]:d.byTagOff[t+1]] {
			if n <= prev || int(n) >= numNodes || int(d.nodeTag[n]) != t {
				return fmt.Errorf("xmltree: snapshot: per-tag node %d out of place in the list of tag %d", n, t)
			}
			prev = n
		}
	}
	return nil
}
