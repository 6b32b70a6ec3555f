package obs

import (
	"sort"
	"sync"
	"time"
)

// SlowEntry is one logged query with its per-stage time breakdown.
type SlowEntry struct {
	Time        time.Time
	Query       string
	Algo        string
	Scheme      string
	Status      string
	K           int
	Relaxations int
	CacheHit    bool
	Total       time.Duration
	Stages      [NumStages]time.Duration
}

// SlowLog is a fixed-capacity ring buffer of the most recent finished
// queries. The ring bounds memory under sustained traffic; Top ranks the
// retained window by latency, so "the N slowest recent queries" is one
// mutex-guarded copy.
type SlowLog struct {
	mu       sync.Mutex
	entries  []SlowEntry // ring storage, len == written capacity
	next     int         // ring write cursor
	capacity int
}

// NewSlowLog returns a slow-query log keeping the capacity most recent
// entries. Capacity below 1 is treated as 1.
func NewSlowLog(capacity int) *SlowLog {
	return &SlowLog{capacity: max(capacity, 1)}
}

// Add logs one finished query, displacing the oldest retained entry
// once the ring is full.
func (l *SlowLog) Add(e SlowEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) < l.capacity {
		l.entries = append(l.entries, e)
		l.next = len(l.entries) % l.capacity
		return
	}
	l.entries[l.next] = e
	l.next = (l.next + 1) % l.capacity
}

// Top returns up to n retained entries, slowest first (ties broken by
// recency, newest first). n <= 0 returns the whole retained window.
func (l *SlowLog) Top(n int) []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]SlowEntry(nil), l.entries...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Time.After(out[j].Time)
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
