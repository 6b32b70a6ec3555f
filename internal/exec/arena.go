package exec

import (
	"sync"

	"flexpath/internal/xmltree"
)

// arenaChunk is the minimum size of a node-buffer chunk. Large enough
// that typical searches carve every intermediate list from one chunk,
// small enough that a pooled idle arena stays cheap.
const arenaChunk = 1 << 14

// Arena is a per-search scratch allocator for the join pipeline. Run
// carves its binding blocks, tuple buffers and sort scratch from it
// instead of allocating per call; Reset recycles everything at once
// between relaxation levels or plan restarts.
//
// Contract: buffers carved from an arena are only valid until the next
// Reset (or PutArena). Nothing carved from an arena may be returned to a
// caller that outlives the search — results that escape (answers, result
// blocks) are always copied into ordinary heap slices. An Arena is NOT
// safe for concurrent use.
type Arena struct {
	// node is the current chunk; its length is the high-water mark of
	// carved space. Exhausted chunks park in full (still referenced by
	// outstanding buffers) until Reset.
	node []xmltree.NodeID
	full [][]xmltree.NodeID

	// Typed scratch reused across join steps and relaxation levels.
	tups [][]tuple // free-list of tuple buffers for the join pipeline
	keys []float64 // ModeSorted score keys
	idx  []int     // ModeSorted order permutation

	// slot maps a distinguished node to its entry in best (Run's final
	// aggregation) or totals (kthBest); sigs collects Hybrid's distinct
	// signatures. The maps are cleared before each use and never
	// reallocated, so a run aggregates without building a map per step.
	slot   map[xmltree.NodeID]int32
	best   []Answer
	totals []float64
	sigs   map[uint64]struct{}
}

var arenaPool = sync.Pool{New: func() interface{} { return &Arena{} }}

// GetArena returns a reset arena from the pool.
func GetArena() *Arena {
	a := arenaPool.Get().(*Arena)
	a.Reset()
	return a
}

// PutArena returns an arena to the pool. The caller must not use any
// buffer carved from it afterwards.
func PutArena(a *Arena) {
	a.Reset()
	// Drop dangling binding pointers held by recycled tuple buffers so a
	// pooled idle arena does not pin a past search's binding blocks.
	for _, t := range a.tups {
		clear(t[:cap(t)])
	}
	arenaPool.Put(a)
}

// Reset recycles all carved node buffers at once. Only the largest chunk
// is kept, so a search that once ballooned does not pin its peak
// footprint forever.
func (a *Arena) Reset() {
	for _, c := range a.full {
		if cap(c) > cap(a.node) {
			a.node = c
		}
	}
	a.full = a.full[:0]
	a.node = a.node[:0]
}

// Nodes carves a NodeID buffer with length 0 and capacity n. Appending
// within n never allocates; appending beyond n falls off the arena into
// an ordinary heap slice (correct, just unamortized).
func (a *Arena) Nodes(n int) []xmltree.NodeID {
	if cap(a.node)-len(a.node) < n {
		c := arenaChunk
		if c < n {
			c = n
		}
		a.full = append(a.full, a.node)
		a.node = make([]xmltree.NodeID, 0, c)
	}
	off := len(a.node)
	a.node = a.node[:off+n]
	return a.node[off : off : off+n]
}

// tupleBuf pops a recycled tuple buffer (length 0), or nil when none is
// free; append grows nil slices normally. recycleTuples returns a buffer
// once the pipeline no longer reads it.
func (a *Arena) tupleBuf() []tuple {
	if len(a.tups) == 0 {
		return nil
	}
	t := a.tups[len(a.tups)-1]
	a.tups = a.tups[:len(a.tups)-1]
	return t[:0]
}

func (a *Arena) recycleTuples(t []tuple) {
	if cap(t) == 0 {
		return
	}
	a.tups = append(a.tups, t)
}

// slots returns the cleared node-to-slot table.
func (a *Arena) slots() map[xmltree.NodeID]int32 {
	if a.slot == nil {
		a.slot = make(map[xmltree.NodeID]int32)
	}
	clear(a.slot)
	return a.slot
}

// signatures returns the cleared signature set.
func (a *Arena) signatures() map[uint64]struct{} {
	if a.sigs == nil {
		a.sigs = make(map[uint64]struct{})
	}
	clear(a.sigs)
	return a.sigs
}

// sortScratch returns reusable keys/idx buffers of length n for the
// ModeSorted resort.
func (a *Arena) sortScratch(n int) ([]float64, []int) {
	if cap(a.keys) < n {
		a.keys = make([]float64, n)
		a.idx = make([]int, n)
	}
	return a.keys[:n], a.idx[:n]
}
