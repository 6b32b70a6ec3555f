package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"flexpath/internal/xmark"
	"flexpath/internal/xmltree"
)

// This file is the differential suite for the columnar block kernels: on
// every input, each batched kernel must return output byte-identical to
// the retained scalar oracle in joins_scalar_test.go. It also holds Run to
// the same answers with a caller's (reused) arena and a pooled one.

type kernelCase struct {
	name   string
	scalar func(*xmltree.Document, []xmltree.NodeID, []xmltree.NodeID) []xmltree.NodeID
	batch  func(*xmltree.Document, []xmltree.NodeID, []xmltree.NodeID) []xmltree.NodeID
}

var kernelCases = []kernelCase{
	{"HasDescendant", scalarSemiJoinHasDescendant, SemiJoinHasDescendant},
	{"HasChild", scalarSemiJoinHasChild, SemiJoinHasChild},
	{"DescendantOf", scalarSemiJoinDescendantOf, SemiJoinDescendantOf},
	{"ChildOf", scalarSemiJoinChildOf, SemiJoinChildOf},
}

func sameNodes(a, b []xmltree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkKernels runs every kernel against its scalar oracle on one
// (outer, inner) pair. Returns false on divergence.
func checkKernels(t testing.TB, d *xmltree.Document, outer, inner []xmltree.NodeID) bool {
	ok := true
	for _, kc := range kernelCases {
		want := kc.scalar(d, outer, inner)
		if got := kc.batch(d, outer, inner); !sameNodes(got, want) {
			t.Logf("%s: got %v want %v (outer=%v inner=%v)", kc.name, got, want, outer, inner)
			ok = false
		}
	}
	for _, n := range outer {
		want := scalarDescendantsInRange(d, inner, n)
		lo, hi := descendantsFrom(d, inner, n, 0)
		if got := inner[lo:hi]; !sameNodes(got, want) {
			t.Logf("descendantsFrom(%d): got %v want %v (list=%v)", n, got, want, inner)
			ok = false
		}
	}
	return ok
}

func TestDifferentialKernelsRandom(t *testing.T) {
	for seed := int64(1); seed <= 200 && !t.Failed(); seed++ {
		differentialKernels(t, seed)
	}
}

func FuzzDifferentialKernelsRandom(f *testing.F) { f.Fuzz(differentialKernels) }

// differentialKernels runs every kernel against its scalar oracle on a
// random document and node lists drawn from seed.
func differentialKernels(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	d := randomDoc(r)
	outer := randomSortedNodes(r, d)
	inner := randomSortedNodes(r, d)
	if !checkKernels(t, d, outer, inner) {
		t.Fatalf("seed %d: the kernels diverge", seed)
	}
}

// TestDifferentialKernelsXMark replays the differential check over real
// tag lists of an XMark document — the exact list shapes (long runs of
// siblings, recursive parlists) the galloping cursors exploit.
func TestDifferentialKernelsXMark(t *testing.T) {
	d, err := xmark.Build(xmark.Config{TargetBytes: 96 << 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tags := []string{"item", "description", "parlist", "listitem", "text",
		"keyword", "person", "name", "open_auction", "annotation"}
	lists := make([][]xmltree.NodeID, 0, len(tags))
	for _, tag := range tags {
		if l := d.NodesWithTag(tag); len(l) > 0 {
			lists = append(lists, l)
		}
	}
	if len(lists) < 4 {
		t.Fatalf("xmark doc unexpectedly sparse: %d non-empty tag lists", len(lists))
	}
	for i, outer := range lists {
		for j, inner := range lists {
			if !checkKernels(t, d, outer, inner) {
				t.Fatalf("kernel divergence on xmark tag lists %d x %d", i, j)
			}
		}
	}
}

// FuzzDifferentialJoins drives the kernels with fuzzer-chosen documents
// and membership masks. The masks select arbitrary sorted sublists, so
// the fuzzer explores cursor patterns (dense runs, single elements, empty
// lists) the random tests may miss.
func FuzzDifferentialJoins(f *testing.F) {
	f.Add(int64(1), uint64(0x5555), uint64(0xaaaa))
	f.Add(int64(42), uint64(0), uint64(^uint64(0)))
	f.Add(int64(-7), uint64(1), uint64(1<<63))
	f.Fuzz(func(t *testing.T, seed int64, outerMask, innerMask uint64) {
		r := rand.New(rand.NewSource(seed))
		d := randomDoc(r)
		pick := func(mask uint64) []xmltree.NodeID {
			var out []xmltree.NodeID
			for n := 0; n < d.Len(); n++ {
				if mask&(1<<(n%64)) != 0 {
					out = append(out, xmltree.NodeID(n))
				}
			}
			return out
		}
		if !checkKernels(t, d, pick(outerMask), pick(innerMask)) {
			t.Fatal("batched kernel diverged from scalar oracle")
		}
	})
}

// TestRunArenaByteIdentical: Run with a caller-supplied arena — including
// a reused, reset one — returns exactly the answers of a run on a pooled
// arena, exhaustive (K = 0) and in both organizations.
func TestRunArenaByteIdentical(t *testing.T) {
	plan := buildOptionalPlan(t)
	for _, o := range []Options{{}, {K: 10, Mode: ModeSorted}, {K: 10, Mode: ModeBuckets}} {
		want := Run(plan, o)
		a := GetArena()
		for i := 0; i < 3; i++ {
			a.Reset()
			o.Arena = a
			got := Run(plan, o)
			if len(got) != len(want) {
				t.Fatalf("K %d mode %v run %d: %d answers vs %d", o.K, o.Mode, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("K %d mode %v run %d answer %d: %+v vs %+v", o.K, o.Mode, i, j, got[j], want[j])
				}
			}
		}
		PutArena(a)
	}
}

// TestArenaConcurrentSearches runs Run concurrently, each goroutine on
// its own arena, and compares every run with a sequential one;
// meaningful under -race, where any cross-arena sharing shows up as a
// data race.
func TestArenaConcurrentSearches(t *testing.T) {
	plan := buildOptionalPlan(t)
	want := Run(plan, Options{K: 10, Mode: ModeBuckets})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a := GetArena()
				got := Run(plan, Options{K: 10, Mode: ModeBuckets, Arena: a})
				PutArena(a)
				if !slices.Equal(got, want) {
					errs <- fmt.Sprintf("run %d: %+v, sequential %+v", i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
