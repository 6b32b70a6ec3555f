// Package merge holds the one global ranking comparator shared by every
// layer that combines per-document FleXPath rankings into one result list:
// Collection.Search (merging member documents inside one process) and
// flexrouter (merging shard responses over the network). Keeping the
// comparator in a single package is what makes the distributed invariant
// checkable at all — a router merge is byte-identical to a single-node
// merge over the same corpus precisely because both call Sort with the
// same Key ordering.
//
// The order is: score under the ranking scheme (higher first), then
// document name (ascending), then Ord (ascending). Ord is the answer's
// position within its own document's ranking — a node identifier inside
// the library, a response index at the router; the two coincide on ties
// because document names are unique across shards and each per-document
// ranking already breaks score ties by node order.
package merge

import (
	"cmp"
	"slices"
	"strings"

	"flexpath/internal/rank"
)

// Key identifies an answer's position in the global ranking.
type Key struct {
	// Score is the answer's (structural, keyword) score pair, compared
	// under the active ranking scheme.
	Score rank.Score
	// Doc is the name the answer's document was added under. Names are
	// unique within a corpus (and, under consistent-hash placement,
	// across shards), so the name is a total tie-break between answers
	// of different documents.
	Doc string
	// Ord orders answers that tie on both score and document: any value
	// monotone in the document-local rank (node order) works, because
	// such ties always come from a single already-sorted source list.
	Ord int
}

// Less reports whether a ranks strictly before b under scheme.
func Less(a, b Key, scheme rank.Scheme) bool { return compare(a, b, scheme) < 0 }

// compare is Less as a three-way comparison: negative when a ranks
// before b, positive when after, zero on a full-key tie.
func compare(a, b Key, scheme rank.Scheme) int {
	if c := a.Score.Compare(b.Score, scheme); c != 0 {
		return -c
	}
	if c := strings.Compare(a.Doc, b.Doc); c != 0 {
		return c
	}
	return cmp.Compare(a.Ord, b.Ord)
}

// Sort stably sorts items into global ranking order by their keys.
// Stability matters: callers may present keys whose Ord only orders
// answers within one source list, and a stable sort preserves each
// source's internal order on full-key ties. A stable sort's output is
// fixed by the order and the input, so every stable sort under Less
// yields this same ranking.
func Sort[T any](items []T, key func(T) Key, scheme rank.Scheme) {
	slices.SortStableFunc(items, func(a, b T) int { return compare(key(a), key(b), scheme) })
}

// Page applies pagination to a sorted ranking: skip the first offset
// answers, then truncate to k. The offset must be applied exactly once,
// after the final merge — never per source — or globally-skipped answers
// are dropped from each source independently (the PR-4 pagination bug).
// Negative offset and k are treated as zero.
func Page[T any](items []T, k, offset int) []T {
	if offset > 0 {
		if offset >= len(items) {
			items = nil
		} else {
			items = items[offset:]
		}
	}
	if k < 0 {
		k = 0
	}
	if len(items) > k {
		items = items[:k]
	}
	return items
}
