package xmltree

// GallopGE returns the smallest index i in [from, len(xs)) with
// xs[i] >= v (> v is v+1) for sorted xs, probing exponentially from
// `from` and then binary searching the probed window: O(log d) for a
// distance d advanced, so monotone calls make a near-linear merge. It is
// the cursor step of the structural joins and the full-text merges.
func GallopGE(xs []NodeID, from int, v NodeID) int {
	if from >= len(xs) || xs[from] >= v {
		return from
	}
	// Invariant: xs[i] < v; window (i, i+step] may contain the answer.
	i, step := from, 1
	for i+step < len(xs) && xs[i+step] < v {
		i += step
		step <<= 1
	}
	lo, hi := i+1, i+step
	if hi > len(xs) {
		hi = len(xs)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
