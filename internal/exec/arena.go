package exec

import (
	"slices"
	"sync"

	"flexpath/internal/xmltree"
)

// arenaChunk is the minimum size of a node-buffer chunk. Large enough
// that typical searches carve every intermediate list from one chunk,
// small enough that a pooled idle arena stays cheap.
const arenaChunk = 1 << 14

// arenaKeep bounds the node chunks, in IDs, an arena keeps across Reset:
// 1 MiB of them, so that a pooled arena carves its next run from memory
// it already has, and a search that once ballooned does not pin its peak.
const arenaKeep = 1 << 20 / 4

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
	// outstanding buffers) until Reset, which moves them to spare.
	node  []xmltree.NodeID
	full  [][]xmltree.NodeID
	spare [][]xmltree.NodeID

	// Typed scratch reused across join steps and relaxation levels.
	tups [][]tuple // free-list of tuple buffers for the join pipeline
	keys []float64 // ModeSorted score keys
	idx  []int     // ModeSorted order permutation

	// tab is the open-addressing table collapse and kthBest group
	// tuples through: one more than the index of a group's entry, 0 when
	// free. dist is the key of the groups by distinguished node. best
	// holds Run's answers and totals/nodes kthBest's groups; sigs
	// collects Hybrid's distinct signatures. All are cleared before each
	// use and kept, so a run groups without allocating per step.
	tab    []int32
	dist   [1]int
	grp    groups
	fused  []fusedStep
	spans  []span // stepper.regions
	best   []Answer
	totals []float64
	nodes  []xmltree.NodeID
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
	a.grp = groups{}
	arenaPool.Put(a)
}

// Reset recycles all carved node buffers at once. The chunks are kept
// for later carving up to arenaKeep IDs in all; the rest are dropped.
func (a *Arena) Reset() {
	kept := 0
	for _, c := range a.spare {
		kept += cap(c)
	}
	keep := func(c []xmltree.NodeID) {
		if cap(c) > 0 && kept+cap(c) <= arenaKeep {
			a.spare = append(a.spare, c[:0])
			kept += cap(c)
		}
	}
	for _, c := range a.full {
		keep(c)
	}
	keep(a.node)
	clear(a.full)
	a.full = a.full[:0]
	a.node = nil
}

// Nodes carves a NodeID buffer with length 0 and capacity n. Appending
// within n never allocates; appending beyond n falls off the arena into
// an ordinary heap slice (correct, just unamortized).
func (a *Arena) Nodes(n int) []xmltree.NodeID {
	if cap(a.node)-len(a.node) < n {
		if cap(a.node) > 0 {
			a.full = append(a.full, a.node)
		}
		a.node = nil
		for i := len(a.spare) - 1; i >= 0; i-- {
			if cap(a.spare[i]) >= n {
				a.node = a.spare[i]
				a.spare = slices.Delete(a.spare, i, i+1)
				break
			}
		}
		if a.node == nil {
			a.node = make([]xmltree.NodeID, 0, max(arenaChunk, n))
		}
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

// table returns a cleared hash table for n entries: a power of two of
// at least 2n slots.
func (a *Arena) table(n int) []int32 {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(a.tab) < size {
		a.tab = make([]int32, size)
	}
	t := a.tab[:size]
	clear(t)
	return t
}

// groups returns the arena's grouper, emptied, for about n groups of
// tuples agreeing on key, gathering them into out.
func (a *Arena) groups(key []int, r ranker, n int, out []tuple) *groups {
	a.grp = groups{ar: a, key: key, r: r, tab: a.table(n), out: out}
	return &a.grp
}

// distKey returns the grouping key of the one variable v.
func (a *Arena) distKey(v int) []int {
	a.dist[0] = v
	return a.dist[:]
}

// fusedSteps returns n zeroed fused-step records.
func (a *Arena) fusedSteps(n int) []fusedStep {
	if cap(a.fused) < n {
		a.fused = make([]fusedStep, n)
	}
	f := a.fused[:n]
	clear(f)
	return f
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
