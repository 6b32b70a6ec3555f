package flexpath

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flexpath/internal/fxp3"
	"flexpath/internal/mmapio"
	"flexpath/internal/obs"
)

// Residency: serving collections bigger than RAM.
//
// A collection member added from an FXP3 snapshot starts cold: the file
// is mapped and its header, directory and small meta section are read —
// a few pages — but the tree, statistics and postings are neither
// decoded nor faulted in. The first search that needs the document
// faults it in: the sections' columns are sliced in place over the
// mapping, and — the first time only — each section is checksummed and
// every column value validated. SetResidency bounds how many faulted-in
// documents stay hot, evicting the least recently used beyond the cap;
// faulting an evicted member back in re-slices and allocates nothing per
// node or per term.
//
// Two facts make the memory math work:
//
//   - A resident document is its mapped columns. Tree, text, statistics
//     and postings alias the mapping, so the pages are clean and the
//     kernel reclaims them under pressure; the heap holds the three
//     struct headers, the tag table and the (initially empty) plan,
//     result and full-text caches.
//
//   - Eviction drops exactly that heap state. It never unmaps: answers
//     and snippets from earlier searches alias the mapping, and an
//     unmap under them would be a use-after-free. Mappings are released
//     only by Collection.Close, when the caller asserts nothing derived
//     from the collection is reachable.
//
// An evicted member's *Document stays valid for searches already
// holding it (the snapshot-at-entry discipline collection searches
// already follow); it simply becomes garbage once they finish.

// member is one collection slot: the name-keyed pairing of an optional
// cold backing (an open FXP3 mapping) with the currently resident
// decoded document, if any. Members added with Add/AddFile have no cold
// backing and are pinned: they cannot be re-faulted, so they are never
// evicted and do not count against the residency cap.
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

// coldDoc is a member's snapshot backing: the parsed (but undecoded)
// container over an open mapping, plus the meta the collection needs
// while the document is cold.
type coldDoc struct {
	path string
	f    *fxp3.File
	meta SnapshotMeta
	// mu single-flights fault-in: concurrent searches hitting one cold
	// document decode it once. f remembers the checksum and validation
	// verdicts, so they are paid by the member's first fault only.
	mu sync.Mutex
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

// AddSnapshotFile adds the FXP3 snapshot at path as a cold member: the
// file is mapped and its meta section read, but the document is not
// decoded until a search needs it. The mapping stays open until
// Collection.Close. Only FXP3 snapshots can be added cold (the other
// formats cannot be decoded lazily); use Add(LoadAuto(...)) for them.
func (c *Collection) AddSnapshotFile(name, path string) error {
	mp, err := mmapio.Open(path)
	if err != nil {
		return err
	}
	f, err := fxp3.Parse(mp.Bytes())
	if err != nil {
		mp.Close()
		return wrapSnapshotPath(path, corrupt(err))
	}
	payload, err := f.Section(fxp3.SectionMeta)
	if err != nil {
		mp.Close()
		return wrapSnapshotPath(path, corrupt(err))
	}
	meta, err := decodeFXP3Meta(payload)
	if err != nil {
		mp.Close()
		return wrapSnapshotPath(path, err)
	}
	mem := &member{name: name, cold: &coldDoc{path: path, f: f, meta: meta}}
	if err := c.register(name, mem, mp); err != nil {
		mp.Close()
		return err
	}
	return nil
}

// require returns the member's document, faulting it in when cold. The
// time a caller spends past the resident check — decoding, or waiting
// for the caller that is — is added to the collection's fault time and
// to span's fault stage (span may be nil).
func (c *Collection) require(m *member, span *obs.Span) (*Document, error) {
	m.lastUse.Store(c.tick.Add(1))
	if d := m.doc.Load(); d != nil {
		return d, nil
	}
	start := time.Now()
	defer func() {
		spent := time.Since(start)
		c.faultNanos.Add(int64(spent))
		span.Rec(obs.StageFault, spent)
	}()
	m.cold.mu.Lock()
	defer m.cold.mu.Unlock()
	if d := m.doc.Load(); d != nil {
		return d, nil
	}
	d, err := documentFromFXP3(m.cold.f)
	if err != nil {
		return nil, wrapSnapshotPath(m.cold.path, err)
	}
	// The faulted-in document gets the collection's remembered cache
	// configuration, like any other late-arriving member.
	c.mu.RLock()
	cacheSet, cacheCap := c.docCacheSet, c.docCacheCap
	planSet, planCap := c.planCacheSet, c.planCacheCap
	c.mu.RUnlock()
	if cacheSet {
		d.SetCache(cacheCap)
	}
	if planSet {
		d.SetPlanCache(planCap)
	}
	m.doc.Store(d)
	c.faults.Add(1)
	c.enforceResidency()
	return d, nil
}

// SetResidency bounds how many fault-capable members stay resident:
// beyond max, the least recently used are evicted (their decoded heap
// state dropped; the mapping stays open, see the package comment
// above). max <= 0 removes the bound. Pinned members (added with
// Add/AddFile) are not counted and never evicted.
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
	_, members := c.snapshot()
	type cand struct {
		m   *member
		use int64
	}
	var res []cand
	for _, m := range members {
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
			// Release the evicted document's heavyweight cache entries
			// (result sets, plan templates) immediately rather than
			// when the GC gets to the document.
			old.purgeCache()
			c.evictions.Add(1)
		}
		res = append(res[:j], res[j+1:]...)
	}
}

// ResidencyStats snapshots the collection's residency state.
type ResidencyStats struct {
	// Resident counts fault-capable members currently decoded; Cold
	// those currently not; Pinned the members with no snapshot backing
	// (always resident, exempt from the cap).
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
	// in: decoding a snapshot, or waiting for the search that was.
	// FaultNanos/Faults well above a re-fault's microseconds means first
	// faults (checksum, validation, page-in) dominate.
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
	_, members := c.snapshot()
	for _, m := range members {
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
	// Resident reports whether the member is currently decoded;
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
	_, members := c.snapshot()
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
// that own one. After Close every answer, snippet and document derived
// from the collection is invalid; call it only on shutdown, when
// nothing derived is reachable. Close is idempotent.
func (c *Collection) Close() error {
	c.mu.Lock()
	mappings := c.mappings
	c.mappings = nil
	members := c.members
	c.mu.Unlock()
	var first error
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

// register inserts a member under a name, recording its mapping (if
// any) for Close, and applies the collection-level bookkeeping every
// membership change shares.
func (c *Collection) register(name string, mem *member, mp *mmapio.Mapping) error {
	c.mu.Lock()
	if c.byName == nil {
		c.byName = make(map[string]int)
	}
	if _, dup := c.byName[name]; dup {
		c.mu.Unlock()
		return fmt.Errorf("flexpath: duplicate document name %q", name)
	}
	c.byName[name] = len(c.names)
	c.names = append(c.names, name)
	c.members = append(c.members, mem)
	if mp != nil {
		c.mappings = append(c.mappings, mp)
	}
	c.gen++
	c.mu.Unlock()
	if qc := c.qc.Load(); qc != nil {
		qc.Purge()
	}
	return nil
}
