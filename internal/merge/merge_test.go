package merge

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"flexpath/internal/rank"
)

type item struct {
	Key
	tag string // identifies the source list an item came from
}

func k(ss, ks float64, doc string, ord int) Key {
	return Key{Score: rank.Score{SS: ss, KS: ks}, Doc: doc, Ord: ord}
}

func TestLessOrdersByScoreThenDocThenOrd(t *testing.T) {
	cases := []struct {
		name   string
		a, b   Key
		scheme rank.Scheme
		want   bool
	}{
		{"higher ss first", k(0.9, 0, "b", 5), k(0.8, 1, "a", 1), rank.StructureFirst, true},
		{"ks breaks ss tie", k(0.9, 0.5, "z", 9), k(0.9, 0.4, "a", 1), rank.StructureFirst, true},
		{"keyword-first flips", k(0.9, 0.4, "a", 1), k(0.8, 0.5, "z", 9), rank.KeywordFirst, false},
		{"combined sums", k(0.5, 0.5, "z", 9), k(0.9, 0.0, "a", 1), rank.Combined, true},
		{"doc breaks score tie", k(0.9, 0.4, "a", 9), k(0.9, 0.4, "b", 1), rank.StructureFirst, true},
		{"ord breaks full tie", k(0.9, 0.4, "a", 1), k(0.9, 0.4, "a", 2), rank.StructureFirst, true},
		{"equal keys not less", k(0.9, 0.4, "a", 1), k(0.9, 0.4, "a", 1), rank.StructureFirst, false},
	}
	for _, tc := range cases {
		if got := Less(tc.a, tc.b, tc.scheme); got != tc.want {
			t.Errorf("%s: Less(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
		// Antisymmetry on strict orderings: a<b implies !(b<a).
		if Less(tc.a, tc.b, tc.scheme) && Less(tc.b, tc.a, tc.scheme) {
			t.Errorf("%s: Less is not antisymmetric", tc.name)
		}
	}
}

// Regression for the distributed-merge invariant: when two answers from
// documents on different shards tie exactly on score, the merged order
// must be decided by document name alone — identically however the
// per-shard lists are interleaved before the sort. A comparator that fell
// back on input position (or omitted the doc tie-break) would make router
// output depend on which shard responded first.
func TestSortStableAcrossShardBoundariesOnScoreTies(t *testing.T) {
	// Shard 1 holds docs a and c, shard 2 holds b and d; every answer
	// ties at the same score.
	shard1 := []item{
		{k(0.7, 0.3, "a.xml", 0), "s1"},
		{k(0.7, 0.3, "a.xml", 1), "s1"},
		{k(0.7, 0.3, "c.xml", 0), "s1"},
	}
	shard2 := []item{
		{k(0.7, 0.3, "b.xml", 0), "s2"},
		{k(0.7, 0.3, "d.xml", 0), "s2"},
		{k(0.7, 0.3, "d.xml", 1), "s2"},
	}
	wantDocs := []string{"a.xml", "a.xml", "b.xml", "c.xml", "d.xml", "d.xml"}

	for _, order := range [][][]item{{shard1, shard2}, {shard2, shard1}} {
		var all []item
		for _, s := range order {
			all = append(all, s...)
		}
		Sort(all, func(it item) Key { return it.Key }, rank.StructureFirst)
		for i, it := range all {
			if it.Doc != wantDocs[i] {
				t.Fatalf("rank %d: doc %q, want %q (full order %v)", i, it.Doc, wantDocs[i], all)
			}
		}
		// Within one document the per-shard node order survives.
		for i := 1; i < len(all); i++ {
			if all[i].Doc == all[i-1].Doc && all[i].Ord < all[i-1].Ord {
				t.Fatalf("intra-document order broken at rank %d: %v", i, all)
			}
		}
	}
}

// The merged order must not depend on which order the source lists are
// concatenated, even for random score mixes with frequent ties
// (determinism under arbitrary shard response arrival order).
func TestSortDeterministicUnderSourceReordering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := []string{"a", "b", "c"}
	lists := make(map[string][]item)
	for _, doc := range docs {
		var answers []item
		for ord := 0; ord < 10; ord++ {
			// Coarse scores force frequent cross-document ties.
			ss := float64(rng.Intn(3)) / 2
			ks := float64(rng.Intn(3)) / 2
			answers = append(answers, item{k(ss, ks, doc, ord), doc})
		}
		// Each source list arrives pre-sorted by its own ranking, as a
		// shard response or per-document result would.
		Sort(answers, func(it item) Key { return it.Key }, rank.Combined)
		lists[doc] = answers
	}
	var want []item
	for _, perm := range [][]string{
		{"a", "b", "c"}, {"a", "c", "b"}, {"b", "a", "c"},
		{"b", "c", "a"}, {"c", "a", "b"}, {"c", "b", "a"},
	} {
		var all []item
		for _, doc := range perm {
			all = append(all, lists[doc]...)
		}
		Sort(all, func(it item) Key { return it.Key }, rank.Combined)
		if want == nil {
			want = all
			continue
		}
		if !reflect.DeepEqual(all, want) {
			t.Fatalf("concatenation order %v changed the merge\n got %v\nwant %v", perm, all, want)
		}
	}
}

// Sort orders exactly as the reflective sort.SliceStable over Less it
// replaced, on random keys with frequent score, name and full-key ties,
// under every scheme. The router and the collection both call Sort, so
// their byte identity holds by construction.
func TestSortMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 300; trial++ {
		items := make([]item, 1+rng.Intn(80))
		for i := range items {
			items[i] = item{k(float64(rng.Intn(4))/4, float64(rng.Intn(3))/2,
				[]string{"a", "b", "c"}[rng.Intn(3)], rng.Intn(5)), strconv.Itoa(i)}
		}
		for _, scheme := range []rank.Scheme{rank.StructureFirst, rank.KeywordFirst, rank.Combined} {
			want := slices.Clone(items)
			sort.SliceStable(want, func(i, j int) bool { return Less(want[i].Key, want[j].Key, scheme) })
			got := slices.Clone(items)
			Sort(got, func(it item) Key { return it.Key }, scheme)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d scheme %v:\n got %v\nwant %v", trial, scheme, got, want)
			}
		}
	}
}

func TestPage(t *testing.T) {
	mk := func(n int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		return s
	}
	cases := []struct {
		n, k, offset int
		want         []int
	}{
		{10, 3, 0, []int{0, 1, 2}},
		{10, 3, 4, []int{4, 5, 6}},
		{10, 5, 8, []int{8, 9}},
		{10, 5, 10, nil},
		{10, 5, 99, nil},
		{10, 0, 2, []int{}},
		{10, -1, 0, []int{}},
		{3, 100, 0, []int{0, 1, 2}},
	}
	for _, tc := range cases {
		got := Page(mk(tc.n), tc.k, tc.offset)
		if len(got) != len(tc.want) {
			t.Errorf("Page(n=%d, k=%d, o=%d) = %v, want %v", tc.n, tc.k, tc.offset, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Page(n=%d, k=%d, o=%d) = %v, want %v", tc.n, tc.k, tc.offset, got, tc.want)
				break
			}
		}
	}
	// The paging identity the router relies on: page(o,k) equals the
	// window [o:o+k] of the unpaged ranking.
	full := mk(50)
	for _, tc := range []struct{ o, k int }{{0, 5}, {3, 7}, {45, 10}, {20, 1}} {
		got := Page(mk(50), tc.k, tc.o)
		end := tc.o + tc.k
		if end > len(full) {
			end = len(full)
		}
		want := full[min(tc.o, len(full)):end]
		if len(got) != len(want) {
			t.Errorf("paging identity broken at o=%d k=%d: %v vs %v", tc.o, tc.k, got, want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
