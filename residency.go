package flexpath

import (
	"sync"
	"sync/atomic"
	"time"

	"flexpath/internal/fxp3"
	"flexpath/internal/obs"
)

// Residency: serving collections bigger than RAM.
//
// A collection member added from an FXP3 snapshot starts cold: the file
// is mapped and its header, directory and small meta section are read —
// a few pages — but the tree, statistics and postings are neither
// decoded nor faulted in. The first search that needs the document
// faults it in: each section is checksummed, every column value
// validated and the columns sliced in place over the mapping. The
// decoded *Document (or the decode error) is kept while the mapping is
// open. SetResidency bounds how many faulted-in documents stay hot,
// evicting the least recently used beyond the cap; a re-fault stores
// the kept document back and allocates nothing. The memory math:
//
//   - A decoded document is its mapped columns: tree, text, statistics
//     and postings alias the mapping, whose clean pages the kernel
//     reclaims under pressure. The heap holds headers, the tag table and
//     the plan and full-text caches.
//
//   - Eviction drops the full-text entries — large and cheap to
//     recompute — and keeps the plan templates, which alias only the
//     member's own immutable columns and are bounded per member by
//     DefaultPlanCacheCapacity, as for a pinned member. So template heap
//     grows with members × shapes, not with the cap, and a re-fault
//     rebuilds nothing.
//
//   - Eviction never unmaps: earlier answers and snippets alias the
//     mapping. Mappings are released only by Collection.Close, when the
//     caller asserts nothing derived from the collection is reachable.

// member is one collection slot: the name-keyed pairing of an optional
// cold backing (an open FXP3 mapping) with the currently resident
// decoded document, if any. Members added with Add (or from an XML file
// with AddFile) have no cold backing and are pinned: they cannot be
// re-faulted, so they are never evicted and do not count against the
// residency cap.
type member struct {
	name string
	// doc is the resident decoded document; nil while cold.
	doc atomic.Pointer[Document]
	// cold is the snapshot backing for fault-in; nil when pinned.
	cold *coldDoc
	// lastUse is the collection's logical clock at the member's last
	// search, driving LRU eviction.
	lastUse atomic.Int64
}

// coldDoc is a member's snapshot backing: the parsed container over an
// open mapping, plus the meta the collection needs while it is cold.
type coldDoc struct {
	path string
	f    *fxp3.File
	meta SnapshotMeta
	// mu single-flights fault-in. doc (or err) is the one decode's
	// outcome, written under mu; doc is also read without it.
	mu  sync.Mutex
	doc atomic.Pointer[Document]
	err error
}

// decoded returns the member's document if ever decoded, resident or not.
func (m *member) decoded() *Document {
	if m.cold != nil {
		return m.cold.doc.Load()
	}
	return m.doc.Load()
}

// nodes returns the member's node count without faulting it in.
func (m *member) nodes() int {
	if d := m.doc.Load(); d != nil {
		return d.Nodes()
	}
	return m.cold.meta.Nodes
}

// sourceBytes returns the member's XML source size without faulting.
func (m *member) sourceBytes() int64 {
	if d := m.doc.Load(); d != nil {
		return d.tree.SourceBytes()
	}
	return m.cold.meta.SourceBytes
}

// AddSnapshotFile adds the FXP3 snapshot at path as a cold member under
// name, failing with ErrDocumentExists if the name is taken: the file is
// mapped and its meta section read, but the document is not decoded until
// a search needs it. A durable collection logs the mapped bytes, so it
// first checksums and validates every section (decoding once and dropping
// the document): a record, once logged, must apply at replay. The
// mapping stays open until Collection.Close. AddFile takes any corpus
// file, deciding its format by its magic.
func (c *Collection) AddSnapshotFile(name, path string) error {
	mp, f, meta, err := openFXP3(path)
	if err != nil {
		return err
	}
	if c.dur != nil {
		if _, err := documentFromFXP3(f); err != nil {
			mp.Close()
			return wrapSnapshotPath(path, err)
		}
	}
	mem := &member{name: name, cold: &coldDoc{path: path, f: f, meta: meta}}
	changed, err := c.mutate(verbAdd, name, mem, mp, f.Bytes())
	if err != nil && !changed {
		// Nothing published: the mapping is still this call's. Once
		// published (a durable wait failed after it), Close releases it.
		mp.Close()
	}
	return err
}

// require returns the member's document, faulting it in when cold (a
// failed first decode fails every fault the same way). The time a
// caller spends past the resident check — decoding, or waiting for the
// caller that is — is added to the collection's fault time and to
// span's fault stage (span may be nil).
func (c *Collection) require(m *member, span *obs.Span) (*Document, error) {
	return c.requireAt(m, c.tick.Add(1), span)
}

// requireAt is require with the member's use stamped at the given tick
// of the LRU clock.
func (c *Collection) requireAt(m *member, tick int64, span *obs.Span) (*Document, error) {
	m.lastUse.Store(tick)
	if d := m.doc.Load(); d != nil {
		return d, nil
	}
	start := time.Now()
	defer func() {
		spent := time.Since(start)
		c.faultNanos.Add(int64(spent))
		span.Rec(obs.StageFault, spent)
	}()
	cd := m.cold
	cd.mu.Lock()
	defer cd.mu.Unlock()
	if d := m.doc.Load(); d != nil {
		return d, nil
	}
	d := cd.doc.Load()
	if d == nil && cd.err == nil {
		if d, cd.err = documentFromFXP3(cd.f); cd.err != nil {
			cd.err = wrapSnapshotPath(cd.path, cd.err)
		} else {
			cd.doc.Store(d)
		}
	}
	if cd.err != nil {
		return nil, cd.err
	}
	m.doc.Store(d)
	c.faults.Add(1)
	c.enforceResidency()
	return d, nil
}

// SetResidency bounds how many fault-capable members stay resident:
// beyond max, the least recently used are evicted (their full-text
// results dropped, see the package comment above). max <= 0 removes the
// bound. Pinned members (added with Add, or from an XML file with
// AddFile) are not counted and never evicted.
func (c *Collection) SetResidency(max int) {
	c.maxResident.Store(int64(max))
	c.enforceResidency()
}

// enforceResidency evicts least-recently-used resident members until
// the residency cap holds. Eviction races benignly with require: a
// member evicted mid-fault is simply re-faulted by its next search.
func (c *Collection) enforceResidency() {
	max := int(c.maxResident.Load())
	if max <= 0 {
		return
	}
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	type cand struct {
		m   *member
		use int64
	}
	var res []cand
	for _, m := range c.members() {
		if m.cold != nil && m.doc.Load() != nil {
			res = append(res, cand{m, m.lastUse.Load()})
		}
	}
	for len(res) > max {
		j := 0
		for i := range res {
			if res[i].use < res[j].use {
				j = i
			}
		}
		if old := res[j].m.doc.Swap(nil); old != nil {
			old.index.PurgeCache() // templates stay: see the package comment
			c.evictions.Add(1)
		}
		res = append(res[:j], res[j+1:]...)
	}
}

// ResidencyStats snapshots the collection's residency state.
type ResidencyStats struct {
	// Resident counts fault-capable members currently faulted in; Cold
	// those currently not (never decoded, or evicted); Pinned the members
	// with no snapshot backing (always resident, exempt from the cap).
	Resident int `json:"resident"`
	Cold     int `json:"cold"`
	Pinned   int `json:"pinned"`
	// Max is the SetResidency cap; 0 means unbounded.
	Max int `json:"max"`
	// Faults counts cold documents faulted in on demand; Evictions counts
	// residency-cap evictions. Faults > Cold+Resident means documents
	// are cycling: the cap is too tight for the working set.
	Faults    uint64 `json:"faults"`
	Evictions uint64 `json:"evictions"`
	// FaultNanos is the total time callers have spent faulting members
	// in: decoding a snapshot (first faults only), or waiting for the
	// search that was.
	FaultNanos int64 `json:"fault_nanos"`
}

// ResidencyStats reports the collection's residency counters.
func (c *Collection) ResidencyStats() ResidencyStats {
	s := ResidencyStats{
		Max:        int(c.maxResident.Load()),
		Faults:     c.faults.Load(),
		Evictions:  c.evictions.Load(),
		FaultNanos: c.faultNanos.Load(),
	}
	for _, m := range c.members() {
		switch {
		case m.cold == nil:
			s.Pinned++
		case m.doc.Load() != nil:
			s.Resident++
		default:
			s.Cold++
		}
	}
	return s
}

// MemberInfo describes one collection member without faulting it in.
type MemberInfo struct {
	Name string `json:"name"`
	// Resident reports whether the member is currently faulted in;
	// Pinned whether it has no snapshot backing (always resident).
	Resident bool `json:"resident"`
	Pinned   bool `json:"pinned"`
	// Nodes and SourceBytes come from the decoded document when
	// resident and from the snapshot's meta section when cold.
	Nodes       int   `json:"nodes"`
	SourceBytes int64 `json:"source_bytes"`
}

// Members lists the collection's members in insertion order, resident
// or not. Unlike Document, listing never faults a cold member in —
// this is the view status endpoints should serve.
func (c *Collection) Members() []MemberInfo {
	members := c.members()
	out := make([]MemberInfo, len(members))
	for i, m := range members {
		out[i] = MemberInfo{
			Name:        m.name,
			Resident:    m.doc.Load() != nil || m.cold == nil,
			Pinned:      m.cold == nil,
			Nodes:       m.nodes(),
			SourceBytes: m.sourceBytes(),
		}
	}
	return out
}

// Close releases every mapping the collection holds: cold members'
// snapshot mappings and the mappings of documents (added with Add)
// that own one. A durable collection first refuses further mutations,
// waits for an in-flight checkpoint and closes its log. After Close
// every answer, snippet and document derived from the collection is
// invalid; call it only on shutdown, when nothing derived is reachable.
// Close is idempotent.
func (c *Collection) Close() error {
	c.mu.Lock()
	mappings := c.mappings
	c.mappings = nil
	members := c.members()
	d := c.dur
	logOpen := d != nil && !d.closed
	if logOpen {
		d.closed = true
	}
	c.mu.Unlock()
	var first error
	if logOpen {
		// A checkpoint reads mapped members: it ends before the unmapping.
		d.ckptMu.Lock()
		first = d.log.Close()
		d.ckptMu.Unlock()
	}
	for _, mp := range mappings {
		if err := mp.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, m := range members {
		if d := m.doc.Load(); d != nil {
			if err := d.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
