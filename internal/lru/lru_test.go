package lru

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"
	"time"
)

func TestGetPut(t *testing.T) {
	c := New[int](8)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1) // first sighting: recorded, not kept
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("a", 2)
	if v, _ := c.Get("a"); v != 2 {
		t.Errorf("overwrite lost: %v", v)
	}
	if s := c.Stats(); s != (Stats{Hits: 2, Misses: 1, Entries: 1, Capacity: 8}) {
		t.Errorf("stats = %+v", s)
	}
}

// slotOf is the doorkeeper slot of key in c, whose table must be
// allocated: FNV-1a over the key, masked to the table's size.
func slotOf[V any](c *Cache[V], key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64() & uint64(len(c.seen)-1)
}

// collidingKey returns a key other than key in the same doorkeeper slot
// of c.
func collidingKey[V any](t *testing.T, c *Cache[V], key string) string {
	for i := 0; i < 100000; i++ {
		if k := fmt.Sprintf("x%d", i); slotOf(c, k) == slotOf(c, key) {
			return k
		}
	}
	t.Fatalf("no key shares %q's slot", key)
	return ""
}

// The doorkeeper's table is a power of two of at least 64 slots, twice
// the capacity, and at most maxSeen slots however large the capacity,
// so a huge capacity neither allocates without bound nor overflows.
func TestDoorkeeperSize(t *testing.T) {
	for _, tc := range []struct{ capacity, slots int }{
		{1, 64}, {32, 64}, {33, 128}, {1024, 2048}, {1000, 2048},
		{maxSeen / 2, maxSeen}, {maxSeen, maxSeen}, {math.MaxInt, maxSeen},
	} {
		c := New[int](tc.capacity)
		c.Put("a", 1)
		c.Put("a", 1)
		if len(c.seen) != tc.slots {
			t.Errorf("capacity %d: %d slots, want %d", tc.capacity, len(c.seen), tc.slots)
		}
		if v, ok := c.Get("a"); !ok || v != 1 {
			t.Errorf("capacity %d: a second Put was not kept: (%v, %v)", tc.capacity, v, ok)
		}
	}
}

// A new key is kept on its second offer, through Put and Do alike; the
// first is a miss that leaves the cache empty.
func TestAdmitOnSecondSighting(t *testing.T) {
	c := New[int](8)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a first Put was kept")
	}
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a second Put was not kept: (%v, %v)", v, ok)
	}
	builds := 0
	build := func() (int, error) { builds++; return 2, nil }
	for i, want := range []int{0, 1, 1} { // entries of b after each Do
		if v, err := c.Do("b", build); err != nil || v != 2 {
			t.Fatalf("Do %d = (%v, %v)", i, v, err)
		}
		if _, ok := c.Get("b"); ok != (want == 1) {
			t.Fatalf("after Do %d: b cached = %v", i, ok)
		}
	}
	if s := c.Stats(); builds != 2 || s != (Stats{Hits: 4, Misses: 4, Entries: 2, Capacity: 8}) {
		t.Errorf("builds = %d, stats = %+v", builds, s)
	}
}

// Updating a present key is not an admission: it succeeds even after
// another key has taken its doorkeeper slot. The slot lost is what a
// collision costs: after a purge the key needs two sightings again.
func TestUpdateBypassesDoorkeeper(t *testing.T) {
	c := New[int](8)
	c.Put("a", 1)
	c.Put("a", 1)
	x := collidingKey(t, c, "a")
	c.Put(x, 0) // overwrites a's slot; x itself is not kept
	c.Put("a", 2)
	if v, ok := c.Get("a"); !ok || v != 2 {
		t.Fatalf("update of a present key = (%v, %v), want 2", v, ok)
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d, want only a", s.Entries)
	}
	c.Purge()
	c.Put("a", 3)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a re-entered although its slot holds another key")
	}
	c.Put("a", 3)
	if v, ok := c.Get("a"); !ok || v != 3 {
		t.Fatalf("a after two sightings = (%v, %v), want 3", v, ok)
	}
}

// At capacity 1, a key admitted once and evicted, or purged, re-enters
// on its next insert: the doorkeeper still holds its sighting.
func TestEvictedAndPurgedKeysReenter(t *testing.T) {
	c := New[int](1)
	twice := func(k string, v int) { c.Put(k, v); c.Put(k, v) }
	twice("a", 1)
	if slotOf(c, "a") == slotOf(c, "b") {
		t.Fatal("a and b share a slot; pick other keys")
	}
	twice("b", 2) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived at capacity 1")
	}
	c.Put("a", 3) // evicts b
	if v, ok := c.Get("a"); !ok || v != 3 {
		t.Fatalf("evicted a did not re-enter at once: (%v, %v)", v, ok)
	}
	c.Purge()
	if _, err := c.Do("a", func() (int, error) { return 4, nil }); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get("a"); !ok || v != 4 {
		t.Fatalf("purged a did not re-enter at once: (%v, %v)", v, ok)
	}
	if s := c.Stats(); s.Entries != 1 || s.Evictions != 2 {
		t.Errorf("stats = %+v, want 1 entry and 2 evictions", s)
	}
}

// A build that is not admitted still reaches its caller and every
// waiter deduplicated onto it; the next Do builds again and is kept.
func TestDoWaitersGetUnadmittedValue(t *testing.T) {
	const n = 4
	c := New[string](8)
	builds, vals, errs := doConcurrently(t, c, n, "built", nil)
	for i := range vals {
		if errs[i] != nil || vals[i] != "built" {
			t.Fatalf("caller %d got (%q, %v)", i, vals[i], errs[i])
		}
	}
	if s := c.Stats(); builds != 1 || s.Entries != 0 || s.Dedups != n-1 {
		t.Fatalf("builds = %d, stats = %+v: want 1 build, nothing kept, %d dedups", builds, s, n-1)
	}
	if v, err := c.Do("k", func() (string, error) { return "again", nil }); err != nil || v != "again" {
		t.Fatalf("second Do = (%q, %v), want its own build", v, err)
	}
	if v, ok := c.Get("k"); !ok || v != "again" {
		t.Fatalf("second build not kept: (%q, %v)", v, ok)
	}
}

// Without shards the LRU order is global and exact at any capacity.
func TestLRUEviction(t *testing.T) {
	c := New[int](3)
	twice := func(k string, v int) { c.Put(k, v); c.Put(k, v) } // admitted on the second
	twice("a", 1)
	twice("b", 2)
	twice("c", 3)
	c.Get("a") // refresh a: b is now least recently used

	c.Do("d", func() (int, error) { return 4, nil }) //nolint:errcheck
	c.Do("d", func() (int, error) { return 4, nil }) //nolint:errcheck
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s missing after eviction", k)
		}
	}
	// a, c, d were just read in that order: a is now the oldest.
	twice("e", 5)
	if _, ok := c.Get("a"); ok {
		t.Error("a should have been evicted after c and d were read")
	}
	if s := c.Stats(); s.Evictions != 2 || s.Entries != 3 {
		t.Errorf("stats = %+v, want 2 evictions and 3 entries", s)
	}
}

// The capacity is exactly the requested one — no per-shard rounding —
// and overflow shows up as evictions, through Put and Do alike. Each key
// is offered twice, so each is admitted.
func TestCapacityBound(t *testing.T) {
	for _, capacity := range []int{1, 7, 16, 17, 100} {
		const keys = 1000
		c := New[int](capacity)
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("k%d", i)
			for range 2 {
				if i%2 == 0 {
					c.Put(k, i)
				} else if _, err := c.Do(k, func() (int, error) { return i, nil }); err != nil {
					t.Fatal(err)
				}
			}
		}
		s := c.Stats()
		if s.Capacity != capacity || s.Entries != capacity || s.Evictions != keys-uint64(capacity) {
			t.Errorf("New(%d) after %d keys: %+v", capacity, keys, s)
		}
	}
}

func TestTinyCapacity(t *testing.T) {
	c := New[int](0) // clamped to 1
	c.Put("a", 1)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("b", 2)
	if s := c.Stats(); s.Entries != 1 || s.Capacity != 1 {
		t.Errorf("stats = %+v, want 1 entry of capacity 1", s)
	}
}

// TestBounded holds the memory-leak regression line for Do, the
// plan-template cache's only entry point: far more distinct keys than
// capacity, each asked twice so that it is admitted, leave exactly
// capacity entries, the overflow visible as evictions.
func TestBounded(t *testing.T) {
	const capacity, keys = 64, 10000
	c := New[int](capacity)
	for i := 0; i < keys; i++ {
		for range 2 {
			if _, err := c.Do(fmt.Sprintf("key-%d", i), func() (int, error) { return i, nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := c.Stats()
	if s.Entries != capacity || s.Capacity != capacity {
		t.Fatalf("entries %d, capacity %d, want both %d", s.Entries, s.Capacity, capacity)
	}
	if want := uint64(keys - capacity); s.Evictions != want {
		t.Fatalf("evictions = %d, want %d", s.Evictions, want)
	}
}

// A Do hit refreshes recency exactly as Get does.
func TestLRUOrder(t *testing.T) {
	c := New[int](2)
	do := func(k string, v int) {
		if _, err := c.Do(k, func() (int, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	do("a", 1)
	do("a", 1) // second sighting: admitted
	do("b", 2)
	do("b", 2)
	do("a", 1) // hit: b is now least recently used
	do("c", 3)
	do("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted by c")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a missing: (%v, %v)", v, ok)
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

func TestPurge(t *testing.T) {
	c := New[int](8)
	for range 2 {
		c.Put("a", 1)
		c.Put("b", 2)
	}
	c.Purge()
	if s := c.Stats(); s.Entries != 0 {
		t.Errorf("entries after purge = %d", s.Entries)
	}
	if _, ok := c.Get("a"); ok {
		t.Error("entry survived purge")
	}
}

// Purge through Do: counters survive it and a purged key is rebuilt.
func TestPurgeRebuilds(t *testing.T) {
	c := New[int](8)
	c.Do("a", func() (int, error) { return 1, nil }) //nolint:errcheck
	c.Put("b", 2)
	c.Purge()
	if s := c.Stats(); s.Entries != 0 || s.Misses != 1 {
		t.Fatalf("stats after purge = %+v, want no entries and the miss kept", s)
	}
	builds := 0
	c.Do("a", func() (int, error) { builds++; return 1, nil }) //nolint:errcheck
	if builds != 1 {
		t.Fatal("purged entry not rebuilt")
	}
}

// A Do build that was running across a purge hands its value back
// without inserting it.
func TestPurgeEpoch(t *testing.T) {
	c := New[string](8)
	c.Put("k", "") // first sighting, so the next build of k is admitted
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan string)
	go func() {
		v, _ := c.Do("k", func() (string, error) {
			close(started)
			<-release
			return "old", nil
		})
		done <- v
	}()
	<-started
	c.Purge()
	// The purge dropped the in-flight registration: a Do after it builds
	// afresh instead of waiting for the pre-purge build.
	if v, _ := c.Do("k", func() (string, error) { return "new", nil }); v != "new" {
		t.Errorf("post-purge Do = %q, want its own build", v)
	}
	close(release)
	if v := <-done; v != "old" {
		t.Errorf("spanning Do returned %q, want its own value", v)
	}
	if v, _ := c.Get("k"); v != "new" {
		t.Errorf("cache holds %q, want the post-purge value", v)
	}
	if s := c.Stats(); s.Entries != 1 || s.Dedups != 0 {
		t.Errorf("stats = %+v, want 1 entry and no dedups", s)
	}
}

func TestDoBuildsOnceAndHits(t *testing.T) {
	c := New[string](8)
	c.Put("k", "") // first sighting, so the build is admitted
	builds := 0
	for i := 0; i < 5; i++ {
		v, err := c.Do("k", func() (string, error) { builds++; return "v", nil })
		if err != nil || v != "v" {
			t.Fatalf("Do = (%q, %v)", v, err)
		}
	}
	if s := c.Stats(); builds != 1 || s.Misses != 1 || s.Hits != 4 || s.Entries != 1 {
		t.Fatalf("builds = %d, stats = %+v", builds, s)
	}
}

// waitDedups blocks (for at most five seconds) until n callers wait on
// an in-flight build.
func waitDedups[V any](t *testing.T, c *Cache[V], n uint64) {
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Dedups < n {
		if time.Now().After(deadline) {
			t.Error("waiters never arrived")
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// doConcurrently runs n Do calls for one key whose single build waits
// until the other n-1 callers are attached, then returns val, err.
func doConcurrently(t *testing.T, c *Cache[string], n int, val string, err error) (builds int, vals []string, errs []error) {
	vals, errs = make([]string, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = c.Do("k", func() (string, error) {
				builds++
				waitDedups(t, c, uint64(n-1))
				return val, err
			})
		}(i)
	}
	wg.Wait()
	return builds, vals, errs
}

// N concurrent misses on one key build once: 1 miss and N-1 dedups.
func TestSingleflightDedup(t *testing.T) {
	const n = 16
	c := New[string](8)
	builds, vals, errs := doConcurrently(t, c, n, "built", nil)
	for i := range vals {
		if errs[i] != nil || vals[i] != "built" {
			t.Fatalf("caller %d got (%q, %v)", i, vals[i], errs[i])
		}
	}
	if s := c.Stats(); builds != 1 || s.Misses != 1 || s.Dedups != n-1 {
		t.Fatalf("builds = %d, stats = %+v, want 1 build, 1 miss, %d dedups", builds, s, n-1)
	}
}

// A build error reaches every waiter and is not cached: the next Do
// builds again.
func TestErrorsNotCached(t *testing.T) {
	const n = 4
	c := New[string](8)
	boom := errors.New("boom")
	builds, _, errs := doConcurrently(t, c, n, "", boom)
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want boom", i, err)
		}
	}
	if s := c.Stats(); builds != 1 || s.Entries != 0 {
		t.Fatalf("builds = %d, stats = %+v: want 1 build and nothing cached", builds, s)
	}
	if v, err := c.Do("k", func() (string, error) { return "ok", nil }); err != nil || v != "ok" {
		t.Fatalf("retry got (%q, %v)", v, err)
	}
}

// A panicking build releases its waiters with an error instead of
// leaving them blocked, and the key can be built again.
func TestBuildPanicReleasesWaiters(t *testing.T) {
	c := New[string](8)
	waited := make(chan error)
	go func() {
		defer func() { _ = recover() }() // the panic under test
		_, _ = c.Do("k", func() (string, error) {
			go func() {
				_, err := c.Do("k", func() (string, error) { return "", nil })
				waited <- err
			}()
			waitDedups(t, c, 1)
			panic("boom")
		})
	}()
	if err := <-waited; !errors.Is(err, errBuildPanicked) {
		t.Fatalf("waiter got %v, want errBuildPanicked", err)
	}
	if v, err := c.Do("k", func() (string, error) { return "ok", nil }); err != nil || v != "ok" {
		t.Fatalf("rebuild after the panic = (%q, %v)", v, err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// 100 keys cycle through 64 slots, so the first Get mostly
			// misses; the second finds the key just put.
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%100)
				for range 2 {
					if v, ok := c.Get(key); ok && v != i%100 {
						t.Errorf("key %s holds %v", key, v)
						return
					}
					c.Put(key, i%100)
				}
			}
		}()
	}
	wg.Wait()
	if s := c.Stats(); s.Hits == 0 || s.Misses == 0 || s.Entries > 64 {
		t.Errorf("expected hits, misses and at most 64 entries: %+v", s)
	}
}

// TestConcurrentMixed hammers Do over an overlapping key space; under
// -race it exercises the hit/miss/dedup/evict interleavings.
func TestConcurrentMixed(t *testing.T) {
	c := New[string](32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", (g*7+i)%100)
				if v, err := c.Do(k, func() (string, error) { return k, nil }); err != nil || v != k {
					t.Errorf("Do(%s) = (%v, %v)", k, v, err)
					return
				}
				if g == 0 && i%100 == 0 {
					c.Purge()
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Entries > s.Capacity {
		t.Fatalf("entries %d exceed capacity %d", s.Entries, s.Capacity)
	}
}

// TestSameKeyGetPutRace hammers one key with concurrent Get and Put.
// Regression: Get used to read the entry's value after releasing the
// lock, racing with a same-key Put rewriting it — the race detector
// flagged exactly this interleaving.
func TestSameKeyGetPutRace(t *testing.T) {
	c := New[int](8)
	c.Put("hot", 0)
	c.Put("hot", 0) // admitted on its second sighting
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Put("hot", g*10000+i)
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if _, ok := c.Get("hot"); !ok {
					t.Error("hot key missing")
					return
				}
			}
		}()
	}
	wg.Wait()
}

var sink *Cache[int]

// An unused cache — most of the ones a re-faulted document builds — is
// one allocation: storage arrives with the first insert.
func TestEmptyCacheAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { sink = New[int](1024) }); n > 1 {
		t.Errorf("New allocates %v times, want at most 1", n)
	}
}

// BenchmarkParallelGet is the traffic check for the single mutex: run
// with -cpu 1,2,8 to see how hits scale with contending goroutines.
func BenchmarkParallelGet(b *testing.B) {
	c := New[int](1024)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		c.Put(keys[i], i)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Get(keys[i%len(keys)])
			i++
		}
	})
}
