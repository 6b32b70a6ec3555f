// Package xmltree provides the XML data model used throughout FleXPath.
//
// A parsed document is a flat table of element nodes in pre-order. Each
// node carries the interval encoding (start, end, level) introduced for
// structural joins by Al-Khalifa et al. (ICDE 2002): node a is an ancestor
// of node d iff start(a) < start(d) && start(d) <= end(a), and a is the
// parent of d iff additionally level(d) == level(a)+1. Node identifiers
// are pre-order positions, so start(n) == n and document order is the
// natural order on NodeID.
package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"flexpath/internal/fxp3"
)

// NodeID identifies an element node within a Document. IDs are assigned in
// pre-order, so comparing NodeIDs compares document order.
type NodeID int32

// InvalidNode is returned when no node exists (e.g. the parent of the root).
const InvalidNode NodeID = -1

// TagID is an interned element tag name.
type TagID int32

// InvalidTag is returned for tag names that do not occur in a document.
const InvalidTag TagID = -1

// Attr is a single element attribute.
type Attr struct {
	Name  string
	Value string
}

// Document is an immutable parsed XML document. All per-node accessors are
// O(1); structural tests use the interval encoding. A Document is safe for
// concurrent readers.
//
// Its only representation is the offset-indexed column layout an FXP3
// tree section stores (see columnar.go): whether the columns are heap
// slices filled by a Builder or views over a mapped snapshot, the
// accessors read them the same way, and the heap holds nothing per node
// beyond the columns themselves. Strings returned by Text, Attr and
// Attrs are views of the blobs and live as long as the blobs do.
type Document struct {
	tags   []string
	tagIDs map[string]TagID
	// Node columns, indexed by NodeID.
	nodeTag []TagID
	end     []NodeID
	level   []int32
	parent  []NodeID
	// Node n's text is textBlob[textOff[n]:textOff[n+1]].
	textOff  []uint64
	textBlob []byte
	// Node n owns attributes attrCnt[n] to attrCnt[n+1]; attribute i's
	// name and value are the attrBlob ranges between attrOff[2i],
	// attrOff[2i+1] and attrOff[2i+2].
	attrCnt  []uint64
	attrOff  []uint64
	attrBlob []byte
	// The nodes with tag t are byTagIDs[byTagOff[t]:byTagOff[t+1]].
	byTagOff []uint64
	byTagIDs []NodeID
	size     int64 // bytes of source XML, if parsed from text
}

// Parse reads a complete XML document and builds its node table. Character
// data is attributed to the innermost enclosing element. Processing
// instructions, comments and directives are ignored. The document must have
// exactly one root element.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	b := NewBuilder()
	depth := 0
	seenRoot := false
	var attrs []Attr
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if depth == 0 {
				if seenRoot {
					return nil, errors.New("xmltree: multiple root elements")
				}
				seenRoot = true
			}
			attrs = attrs[:0]
			for _, a := range t.Attr {
				attrs = append(attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			b.Open(t.Name.Local, attrs...)
			depth++
		case xml.EndElement:
			b.Close()
			depth--
		case xml.CharData:
			if depth > 0 {
				b.Text(string(t))
			}
		}
	}
	if !seenRoot {
		return nil, errors.New("xmltree: empty document")
	}
	if depth != 0 {
		return nil, errors.New("xmltree: unbalanced elements")
	}
	d, err := b.Document()
	if err != nil {
		return nil, err
	}
	d.size = dec.InputOffset()
	return d, nil
}

// ParseString is Parse over an in-memory string.
func ParseString(s string) (*Document, error) {
	d, err := Parse(strings.NewReader(s))
	if err != nil {
		return nil, err
	}
	d.size = int64(len(s))
	return d, nil
}

// Len returns the number of element nodes.
func (d *Document) Len() int { return len(d.nodeTag) }

// SourceBytes returns the byte length of the XML the document was parsed
// from, or 0 for documents assembled via a Builder.
func (d *Document) SourceBytes() int64 { return d.size }

// Root returns the root element.
func (d *Document) Root() NodeID { return 0 }

// Tag returns the interned tag of node n.
func (d *Document) Tag(n NodeID) TagID { return d.nodeTag[n] }

// TagName returns the tag name of node n.
func (d *Document) TagName(n NodeID) string { return d.tags[d.nodeTag[n]] }

// TagByName resolves a tag name to its TagID, or InvalidTag if the tag does
// not occur in the document.
func (d *Document) TagByName(name string) TagID {
	if id, ok := d.tagIDs[name]; ok {
		return id
	}
	return InvalidTag
}

// TagNameOf returns the name of an interned tag.
func (d *Document) TagNameOf(t TagID) string { return d.tags[t] }

// NumTags returns the number of distinct tags.
func (d *Document) NumTags() int { return len(d.tags) }

// End returns the interval end of node n: the largest NodeID in n's subtree.
func (d *Document) End(n NodeID) NodeID { return d.end[n] }

// Level returns the depth of node n (root is level 0).
func (d *Document) Level(n NodeID) int { return int(d.level[n]) }

// Parent returns the parent of node n, or InvalidNode for the root.
func (d *Document) Parent(n NodeID) NodeID { return d.parent[n] }

// Ends returns the End column of the node table, indexed by NodeID: the
// interval end of every node. Batch kernels index it directly instead of
// calling End per node. The returned slice must not be modified.
func (d *Document) Ends() []NodeID { return d.end }

// Parents returns the Parent column of the node table, indexed by NodeID
// (InvalidNode for the root). The returned slice must not be modified.
func (d *Document) Parents() []NodeID { return d.parent }

// Text returns the character data directly inside node n (excluding
// descendants' text).
func (d *Document) Text(n NodeID) string {
	return view(d.textBlob, d.textOff[n], d.textOff[n+1])
}

// view returns blob[lo:hi] as a string without copying it.
func view(blob []byte, lo, hi uint64) string {
	s, _ := fxp3.String(blob, lo, hi-lo)
	return s
}

// attr returns the i-th attribute of the document.
func (d *Document) attr(i uint64) Attr {
	o := d.attrOff[2*i : 2*i+3]
	return Attr{Name: view(d.attrBlob, o[0], o[1]), Value: view(d.attrBlob, o[1], o[2])}
}

// Attrs returns the attributes of node n, read from the attribute
// columns into a new slice.
func (d *Document) Attrs(n NodeID) []Attr {
	lo, hi := d.attrCnt[n], d.attrCnt[n+1]
	if lo == hi {
		return nil
	}
	out := make([]Attr, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, d.attr(i))
	}
	return out
}

// Attr looks up an attribute by name on node n.
func (d *Document) Attr(n NodeID, name string) (string, bool) {
	for i := d.attrCnt[n]; i < d.attrCnt[n+1]; i++ {
		if a := d.attr(i); a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// IsAncestor reports whether a is a proper ancestor of n.
func (d *Document) IsAncestor(a, n NodeID) bool {
	return a < n && n <= d.end[a]
}

// IsParent reports whether a is the parent of n.
func (d *Document) IsParent(a, n NodeID) bool {
	return d.parent[n] == a
}

// Contains reports whether n's subtree (including n itself) contains m.
func (d *Document) Contains(n, m NodeID) bool {
	return n <= m && m <= d.end[n]
}

// NodesWithTag returns all nodes with the given tag name in document order.
// The returned slice must not be modified.
func (d *Document) NodesWithTag(name string) []NodeID {
	return d.NodesWithTagID(d.TagByName(name))
}

// NodesWithTagID returns all nodes with tag t in document order. The
// returned slice must not be modified.
func (d *Document) NodesWithTagID(t TagID) []NodeID {
	if t == InvalidTag {
		return nil
	}
	lo, hi := d.byTagOff[t], d.byTagOff[t+1]
	return d.byTagIDs[lo:hi:hi]
}

// Children returns the child elements of n in document order.
func (d *Document) Children(n NodeID) []NodeID {
	var out []NodeID
	for c := n + 1; c <= d.end[n]; c = d.end[c] + 1 {
		out = append(out, c)
	}
	return out
}

// SubtreeText concatenates all character data in n's subtree in document
// order, separating element boundaries with single spaces.
func (d *Document) SubtreeText(n NodeID) string {
	var sb strings.Builder
	for m := n; m <= d.end[n]; m++ {
		if t := d.Text(m); t != "" {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(t)
		}
	}
	return sb.String()
}

// Path returns the slash-separated tag path from the root to n, e.g.
// "/site/regions/africa/item".
func (d *Document) Path(n NodeID) string {
	// One pass up collects the ancestor chain (stack-allocated for any
	// realistic depth) and sizes the output, so the builder allocates
	// exactly once however deep the node sits.
	var stackArr [64]NodeID
	stack := stackArr[:0]
	total := 0
	for m := n; m != InvalidNode; m = d.parent[m] {
		stack = append(stack, m)
		total += 1 + len(d.TagName(m))
	}
	var sb strings.Builder
	sb.Grow(total)
	for i := len(stack) - 1; i >= 0; i-- {
		sb.WriteByte('/')
		sb.WriteString(d.TagName(stack[i]))
	}
	return sb.String()
}

// WriteXML serializes the subtree rooted at n as XML.
func (d *Document) WriteXML(w io.Writer, n NodeID) error {
	bw, ok := w.(io.StringWriter)
	if !ok {
		bw = stringWriter{w}
	}
	return d.writeXML(bw, n)
}

type stringWriter struct{ io.Writer }

func (s stringWriter) WriteString(str string) (int, error) {
	return s.Write([]byte(str))
}

func (d *Document) writeXML(w io.StringWriter, n NodeID) error {
	if _, err := w.WriteString("<" + d.TagName(n)); err != nil {
		return err
	}
	for i := d.attrCnt[n]; i < d.attrCnt[n+1]; i++ {
		a := d.attr(i)
		if _, err := w.WriteString(" " + a.Name + `="` + escapeXML(a.Value) + `"`); err != nil {
			return err
		}
	}
	if _, err := w.WriteString(">"); err != nil {
		return err
	}
	if t := d.Text(n); t != "" {
		if _, err := w.WriteString(escapeXML(t)); err != nil {
			return err
		}
	}
	for _, c := range d.Children(n) {
		if err := d.writeXML(w, c); err != nil {
			return err
		}
	}
	_, err := w.WriteString("</" + d.TagName(n) + ">")
	return err
}

func escapeXML(s string) string {
	if !strings.ContainsAny(s, "<>&\"") {
		return s
	}
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// Builder assembles a Document programmatically without going through XML
// text. Calls must form a balanced Open/Close sequence with exactly one
// top-level element. It fills the document's columns as the calls arrive;
// only text that reaches an element after one of its children has opened
// (mixed content) is set aside, in late, and spliced in by Document.
type Builder struct {
	d     Document
	stack []NodeID
	roots int
	late  []lateText
}

type lateText struct {
	node NodeID
	s    string
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	b := &Builder{}
	b.d.tagIDs = make(map[string]TagID)
	b.d.attrCnt = []uint64{0}
	b.d.attrOff = []uint64{0}
	return b
}

func (b *Builder) tagID(name string) TagID {
	if id, ok := b.d.tagIDs[name]; ok {
		return id
	}
	id := TagID(len(b.d.tags))
	b.d.tags = append(b.d.tags, name)
	b.d.tagIDs[name] = id
	return id
}

// Open starts a new element and returns its NodeID.
func (b *Builder) Open(tag string, attrs ...Attr) NodeID {
	d := &b.d
	id := NodeID(len(d.nodeTag))
	parent := InvalidNode
	level := int32(0)
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
		level = d.level[parent] + 1
	} else {
		b.roots++
	}
	d.nodeTag = append(d.nodeTag, b.tagID(tag))
	d.end = append(d.end, id)
	d.level = append(d.level, level)
	d.parent = append(d.parent, parent)
	d.textOff = append(d.textOff, uint64(len(d.textBlob)))
	for _, a := range attrs {
		d.attrBlob = append(d.attrBlob, a.Name...)
		d.attrOff = append(d.attrOff, uint64(len(d.attrBlob)))
		d.attrBlob = append(d.attrBlob, a.Value...)
		d.attrOff = append(d.attrOff, uint64(len(d.attrBlob)))
	}
	d.attrCnt = append(d.attrCnt, uint64(len(d.attrOff)/2))
	b.stack = append(b.stack, id)
	return id
}

// Text appends character data to the currently open element, separated
// from the element's earlier text by a single space. Leading and trailing
// whitespace is preserved; purely-whitespace data is dropped.
func (b *Builder) Text(s string) {
	if len(b.stack) == 0 {
		return
	}
	if strings.TrimSpace(s) == "" {
		return
	}
	d := &b.d
	n := b.stack[len(b.stack)-1]
	if int(n) != len(d.nodeTag)-1 {
		b.late = append(b.late, lateText{n, s})
		return
	}
	if uint64(len(d.textBlob)) > d.textOff[n] {
		d.textBlob = append(d.textBlob, ' ')
	}
	d.textBlob = append(d.textBlob, s...)
}

// Close ends the most recently opened element.
func (b *Builder) Close() {
	if len(b.stack) == 0 {
		return
	}
	n := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.d.end[n] = NodeID(len(b.d.nodeTag) - 1)
}

// Element opens an element containing only text and immediately closes it.
func (b *Builder) Element(tag, text string, attrs ...Attr) NodeID {
	n := b.Open(tag, attrs...)
	b.Text(text)
	b.Close()
	return n
}

// Document finalizes the builder, which must not be used afterwards. It
// fails if elements are unbalanced or there is not exactly one root.
func (b *Builder) Document() (*Document, error) {
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("xmltree: %d unclosed elements", len(b.stack))
	}
	if b.roots != 1 {
		return nil, fmt.Errorf("xmltree: document must have exactly one root, got %d", b.roots)
	}
	b.d.textOff = append(b.d.textOff, uint64(len(b.d.textBlob)))
	if len(b.late) > 0 {
		b.spliceLateText()
	}
	d := b.d
	d.indexTags()
	return &d, nil
}

// spliceLateText rewrites the text columns with every late fragment
// appended to its node's text, in arrival order.
func (b *Builder) spliceLateText() {
	d := &b.d
	sort.SliceStable(b.late, func(i, j int) bool { return b.late[i].node < b.late[j].node })
	blob := make([]byte, 0, len(d.textBlob))
	off := make([]uint64, len(d.textOff))
	li := 0
	for n := range d.nodeTag {
		off[n] = uint64(len(blob))
		blob = append(blob, d.textBlob[d.textOff[n]:d.textOff[n+1]]...)
		for ; li < len(b.late) && int(b.late[li].node) == n; li++ {
			if uint64(len(blob)) > off[n] {
				blob = append(blob, ' ')
			}
			blob = append(blob, b.late[li].s...)
		}
	}
	off[len(d.nodeTag)] = uint64(len(blob))
	d.textOff, d.textBlob = off, blob
}

// indexTags fills the per-tag node lists from the tag column by a
// counting sort, which leaves every list in document order.
func (d *Document) indexTags() {
	d.byTagOff = make([]uint64, len(d.tags)+1)
	for _, t := range d.nodeTag {
		d.byTagOff[t+1]++
	}
	for t := range d.tags {
		d.byTagOff[t+1] += d.byTagOff[t]
	}
	d.byTagIDs = make([]NodeID, len(d.nodeTag))
	next := append([]uint64(nil), d.byTagOff[:len(d.tags)]...)
	for n, t := range d.nodeTag {
		d.byTagIDs[next[t]] = NodeID(n)
		next[t]++
	}
}
