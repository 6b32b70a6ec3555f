// Package lru is the one bounded cache behind every memo in the
// repository: a collection's result cache, the plan-template cache and
// flexserve's parsed-query memo.
//
// A Cache is an exact LRU over string keys behind a single mutex. One
// lock is enough for the traffic it sees: a result cache takes one
// lookup and at most one put per search, and a member's plan cache one
// lookup each time a search evaluates the member. Do adds single-flight construction: a miss
// runs the builder outside the lock and concurrent misses on the same
// key wait for that one build.
//
// A new key is admitted on its second sighting, as by TinyLFU's
// doorkeeper (Einziger, Friedman & Manes, ACM ToS 2017): the first Put or
// Do build of a key only records a hash of it, and the value is dropped;
// the next one stores the value. So a key asked once, such as an ad hoc
// query, leaves only a table slot behind, and a repeated key is kept
// from its second use on. The doorkeeper is a direct-mapped table
// of FNV-1a hashes, so another key landing in the same slot can only make
// a key wait for one more sighting (or, on a full 64-bit collision, enter
// one early); it never changes a value a caller gets. Updating a key that
// is present is not an admission and always happens.
//
// Purge bumps an epoch. A Do build that was already running across a
// purge returns its value to its caller but never inserts it, so a
// purge cannot be undone by work that was in flight across it. Purge
// keeps the doorkeeper: it records sightings, not values, so a key that
// was admitted before re-enters on its next insert.
package lru

import (
	"container/list"
	"errors"
	"math/bits"
	"sync"
)

// maxSeen bounds the doorkeeper at 2^20 slots (8 MB), however large the
// capacity: a bigger cache shares slots, which only delays admissions.
const maxSeen = 1 << 20

// errBuildPanicked is what callers waiting on a Do build receive when
// the build panics; the panic itself continues in the building caller.
var errBuildPanicked = errors.New("lru: build panicked")

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	// Hits and Misses count lookups (Get and Do); a miss whose value
	// is not admitted leaves Entries unchanged. Evictions counts
	// entries displaced by the LRU policy. Dedups counts Do calls that
	// waited for another caller's build of the same key instead of
	// building: N concurrent misses on one key score 1 miss and N-1
	// dedups.
	Hits, Misses, Evictions, Dedups uint64
	// Entries is the current size; Capacity the bound New was given.
	Entries, Capacity int
}

// Cache is a bounded LRU map from string keys to values of type V. The
// zero value is not usable; construct with New. All methods are safe
// for concurrent use.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	epoch    uint64
	items    map[string]*list.Element // nil until the first admission
	seen     []uint64                 // doorkeeper: key hash|1 per slot, 0 empty; nil until the first insert
	order    list.List                // front = most recently used
	inflight map[string]*call[V]      // nil until the first Do miss
	stats    Stats                    // Entries and Capacity unused
}

type entry[V any] struct {
	key string
	val V
}

// call is one in-flight Do build; waiters block on done.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache holding at most capacity entries (at least one).
// Storage is allocated on first insert, so an unused cache costs one
// allocation. Its doorkeeper has the next power of two at or above
// max(64, 2×capacity) slots, and at most maxSeen.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{capacity: max(capacity, 1)}
}

// Get returns the value cached under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.hit(key)
	if !ok {
		c.stats.Misses++
	}
	return v, ok
}

// hit looks key up and, when present, counts a hit and refreshes its
// recency. c.mu must be held.
func (c *Cache[V]) hit(key string) (v V, ok bool) {
	el, ok := c.items[key]
	if ok {
		c.stats.Hits++
		c.order.MoveToFront(el)
		v = el.Value.(*entry[V]).val
	}
	return v, ok
}

// Put stores val under key, evicting the least recently used entry when
// the cache is full, if key was offered before; a first offer of a key
// only records it. Storing an existing key refreshes its value and
// recency.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(key, val)
}

// insert is Put with c.mu held.
func (c *Cache[V]) insert(key string, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	if !c.sighted(key) {
		return
	}
	if c.items == nil {
		c.items = make(map[string]*list.Element)
	}
	if c.order.Len() >= c.capacity {
		back := c.order.Back()
		delete(c.items, back.Value.(*entry[V]).key)
		c.order.Remove(back)
		c.stats.Evictions++
	}
	c.items[key] = c.order.PushFront(&entry[V]{key: key, val: val})
}

// sighted records an offer of key in the doorkeeper and reports whether
// the key had been offered before. c.mu must be held.
func (c *Cache[V]) sighted(key string) bool {
	if c.seen == nil {
		n := max(64, 2*min(c.capacity, maxSeen/2))
		c.seen = make([]uint64, 1<<bits.Len(uint(n-1)))
	}
	// FNV-1a, 64 bits.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	slot := &c.seen[h&uint64(len(c.seen)-1)]
	if *slot == h|1 {
		return true
	}
	*slot = h | 1
	return false
}

// Do returns the value cached under key, building it with build on a
// miss. Concurrent Do calls for the same key run build once: the first
// miss builds, later arrivals wait for its result (counted as dedups,
// not misses). build runs outside the lock. Its value goes to the caller
// and every waiter; it is inserted, by Put's admission rule, unless the
// cache was purged meanwhile. Its error is returned to every waiter
// and never cached, so the next miss retries. If build panics, the
// waiters get an error and the panic continues in the building caller.
func (c *Cache[V]) Do(key string, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if v, ok := c.hit(key); ok {
		c.mu.Unlock()
		return v, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.stats.Dedups++
		c.mu.Unlock()
		<-cl.done
		return cl.val, cl.err
	}
	c.stats.Misses++
	cl := &call[V]{done: make(chan struct{})}
	if c.inflight == nil {
		c.inflight = make(map[string]*call[V])
	}
	c.inflight[key] = cl
	epoch := c.epoch
	c.mu.Unlock()

	// Should build panic, cl.err keeps this value and the deferred
	// completion still releases the waiters.
	cl.err = errBuildPanicked
	defer c.complete(key, cl, epoch)
	cl.val, cl.err = build()
	return cl.val, cl.err
}

// complete unregisters a finished Do build, inserts its value unless it
// failed or a purge intervened, and releases its waiters.
func (c *Cache[V]) complete(key string, cl *call[V], epoch uint64) {
	c.mu.Lock()
	// A purge drops the in-flight registry too, so after one the key may
	// belong to a newer build.
	if c.inflight[key] == cl {
		delete(c.inflight, key)
	}
	if cl.err == nil && epoch == c.epoch {
		c.insert(key, cl.val)
	}
	c.mu.Unlock()
	close(cl.done)
}

// Purge discards every entry and starts a new epoch: builds already
// running are not inserted, and later Do calls do not wait for them.
// Counters and the doorkeeper are preserved.
func (c *Cache[V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	c.items, c.inflight = nil, nil
	c.order.Init()
}

// Stats snapshots the cache's counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries, s.Capacity = c.order.Len(), c.capacity
	return s
}
