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
// Purge bumps an epoch. A Do build that was already running across a
// purge returns its value to its caller but never inserts it, so a
// purge cannot be undone by work that was in flight across it.
package lru

import (
	"container/list"
	"errors"
	"sync"
)

// errBuildPanicked is what callers waiting on a Do build receive when
// the build panics; the panic itself continues in the building caller.
var errBuildPanicked = errors.New("lru: build panicked")

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	// Hits and Misses count lookups (Get and Do). Evictions counts
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
	items    map[string]*list.Element // nil until the first insert
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
// allocation.
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
// the cache is full. Storing an existing key refreshes its value and
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

// Do returns the value cached under key, building it with build on a
// miss. Concurrent Do calls for the same key run build once: the first
// miss builds, later arrivals wait for its result (counted as dedups,
// not misses). build runs outside the lock. Its value is inserted unless
// the cache was purged meanwhile; its error is returned to every waiter
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
// Counters are preserved.
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
