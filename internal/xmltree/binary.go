package xmltree

import (
	"fmt"
	"io"
	"math"

	"flexpath/internal/varint"
)

// Legacy varint snapshot format for parsed documents: the tree section
// of an FXP2 snapshot. Nothing writes it any more (FXP3 stores the
// columns as they are); ReadBinary stays while the FXP2 reader does.
//
// Layout (all integers unsigned varints unless noted):
//
//	magic "FXT1"
//	numTags, then each tag as len-prefixed UTF-8
//	numNodes
//	per node: tag id, end delta (end-id), level, parent+1,
//	          text (len-prefixed), attr count, attrs (name,value pairs)
//	source byte count (may be 0)

var binaryMagic = [4]byte{'F', 'X', 'T', '1'}

// ReadBinary restores a document from an FXT1 stream: it fills the
// columns from the stream and holds them to Validate.
func ReadBinary(r io.Reader) (*Document, error) {
	br, err := varint.NewReader(r, "xmltree", binaryMagic)
	if err != nil {
		return nil, err
	}
	numTags := br.Count()
	d := &Document{
		tags:   make([]string, numTags),
		tagIDs: make(map[string]TagID, numTags),
	}
	for i := 0; i < numTags && br.Err() == nil; i++ {
		d.tags[i] = br.String()
		d.tagIDs[d.tags[i]] = TagID(i)
	}
	numNodes := br.Count()
	d.nodeTag = make([]TagID, numNodes)
	d.end = make([]NodeID, numNodes)
	d.level = make([]int32, numNodes)
	d.parent = make([]NodeID, numNodes)
	d.textOff = make([]uint64, numNodes+1)
	d.attrCnt = make([]uint64, numNodes+1)
	d.attrOff = []uint64{0}
	for n := 0; n < numNodes && br.Err() == nil; n++ {
		// Narrowed to the column width as they come: a value that does
		// not fit fails Validate as the out-of-range value it becomes.
		d.nodeTag[n] = TagID(br.Count())
		d.end[n] = NodeID(n + br.Count())
		d.level[n] = int32(br.Count())
		d.parent[n] = NodeID(br.Count() - 1)
		d.textBlob = br.AppendString(d.textBlob)
		d.textOff[n+1] = uint64(len(d.textBlob))
		for i := 2 * br.Count(); i > 0 && br.Err() == nil; i-- {
			d.attrBlob = br.AppendString(d.attrBlob)
			d.attrOff = append(d.attrOff, uint64(len(d.attrBlob)))
		}
		d.attrCnt[n+1] = uint64(len(d.attrOff) / 2)
	}
	size := br.Uvarint()
	if err := br.Err(); err != nil {
		return nil, err
	}
	if size > math.MaxInt64 {
		return nil, fmt.Errorf("xmltree: snapshot: invalid source size")
	}
	d.size = int64(size)
	if err := d.validateNodes(); err != nil {
		return nil, err
	}
	d.indexTags()
	return d, nil
}
