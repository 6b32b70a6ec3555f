package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexpath/internal/ir"
	"flexpath/internal/tpq"
	"flexpath/internal/xmark"
	"flexpath/internal/xmltree"
)

// This file is the differential suite for the columnar block kernels: on
// every input, each batched kernel (both the allocating wrapper and the
// arena-backed Into form) must return output byte-identical to the
// retained scalar oracle in joins_scalar_test.go, and arena reuse must never
// alias or corrupt results that were copied out before a Reset.

type kernelCase struct {
	name   string
	scalar func(*xmltree.Document, []xmltree.NodeID, []xmltree.NodeID) []xmltree.NodeID
	batch  func(*xmltree.Document, []xmltree.NodeID, []xmltree.NodeID) []xmltree.NodeID
	into   func(*Arena, []xmltree.NodeID, *xmltree.Document, []xmltree.NodeID, []xmltree.NodeID) []xmltree.NodeID
}

var kernelCases = []kernelCase{
	{"HasDescendant", scalarSemiJoinHasDescendant, SemiJoinHasDescendant, SemiJoinHasDescendantInto},
	{"HasChild", scalarSemiJoinHasChild, SemiJoinHasChild, SemiJoinHasChildInto},
	{"DescendantOf", scalarSemiJoinDescendantOf, SemiJoinDescendantOf, SemiJoinDescendantOfInto},
	{"ChildOf", scalarSemiJoinChildOf, SemiJoinChildOf, SemiJoinChildOfInto},
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

// checkKernels runs every kernel in wrapper and arena form against its
// scalar oracle on one (outer, inner) pair. Returns false on divergence.
func checkKernels(t testing.TB, d *xmltree.Document, a *Arena, outer, inner []xmltree.NodeID) bool {
	ok := true
	for _, kc := range kernelCases {
		want := kc.scalar(d, outer, inner)
		if got := kc.batch(d, outer, inner); !sameNodes(got, want) {
			t.Logf("%s wrapper: got %v want %v (outer=%v inner=%v)", kc.name, got, want, outer, inner)
			ok = false
		}
		if got := kc.into(a, a.Nodes(len(outer)), d, outer, inner); !sameNodes(got, want) {
			t.Logf("%s into: got %v want %v (outer=%v inner=%v)", kc.name, got, want, outer, inner)
			ok = false
		}
	}
	for _, n := range outer {
		want := scalarDescendantsInRange(d, inner, n)
		if got := DescendantsInRange(d, inner, n); !sameNodes(got, want) {
			t.Logf("DescendantsInRange(%d): got %v want %v (list=%v)", n, got, want, inner)
			ok = false
		}
	}
	return ok
}

func TestDifferentialKernelsRandom(t *testing.T) {
	a := NewArena()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDoc(r)
		a.Reset()
		outer := randomSortedNodes(r, d)
		inner := randomSortedNodes(r, d)
		return checkKernels(t, d, a, outer, inner)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
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
	a := GetArena()
	defer PutArena(a)
	for i, outer := range lists {
		for j, inner := range lists {
			a.Reset()
			if !checkKernels(t, d, a, outer, inner) {
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
	a := NewArena()
	f.Fuzz(func(t *testing.T, seed int64, outerMask, innerMask uint64) {
		r := rand.New(rand.NewSource(seed))
		d := randomDoc(r)
		a.Reset()
		pick := func(mask uint64) []xmltree.NodeID {
			var out []xmltree.NodeID
			for n := 0; n < d.Len(); n++ {
				if mask&(1<<(n%64)) != 0 {
					out = append(out, xmltree.NodeID(n))
				}
			}
			return out
		}
		if !checkKernels(t, d, a, pick(outerMask), pick(innerMask)) {
			t.Fatal("batched kernel diverged from scalar oracle")
		}
	})
}

// TestArenaResultsNoAliasing: results computed through an arena and then
// copied out must survive later carving, a Reset, and a full re-run on
// the recycled arena. A violation means a kernel handed out memory that a
// later carve re-used.
func TestArenaResultsNoAliasing(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var d *xmltree.Document
	var q *tpq.Query
	var ix *ir.Index
	for {
		d = randomDoc(r)
		ix = ir.NewIndex(d)
		q = tpq.MustParse(`//a[./b and .//c]`)
		if NewEvaluator(d, ix).Evaluate(q) != nil {
			break
		}
	}
	ev := NewEvaluator(d, ix)

	a := GetArena()
	defer PutArena(a)
	first := ev.EvaluateFullArena(q, a)
	if first == nil {
		t.Fatal("expected matches")
	}
	snapshot := make([][]xmltree.NodeID, len(first))
	for i, l := range first {
		snapshot[i] = append([]xmltree.NodeID(nil), l...)
	}
	// More work on the same arena (no Reset) must not disturb the lists
	// already handed out.
	for i := 0; i < 10; i++ {
		ev.EvaluateFullArena(q, a)
	}
	for i := range first {
		if !sameNodes(first[i], snapshot[i]) {
			t.Fatalf("list %d changed under later carving: %v vs %v", i, first[i], snapshot[i])
		}
	}
	// After Reset the arena memory is recycled; a fresh evaluation must
	// reproduce the snapshot exactly on the recycled chunks.
	a.Reset()
	again := ev.EvaluateFullArena(q, a)
	for i := range again {
		if !sameNodes(again[i], snapshot[i]) {
			t.Fatalf("list %d differs after arena recycle: %v vs %v", i, again[i], snapshot[i])
		}
	}
	// And the arena path must agree with the plain-allocation path.
	plain := ev.EvaluateFull(q)
	for i := range plain {
		if !sameNodes(plain[i], again[i]) {
			t.Fatalf("arena vs plain mismatch at %d: %v vs %v", i, again[i], plain[i])
		}
	}
}

// TestRunArenaByteIdentical: Run with a caller-supplied arena — including
// a reused, reset one — returns exactly the answers of an arena-less run,
// for every mode. Run under -race this also exercises the pooled-arena
// path against parallel workers.
func TestRunArenaByteIdentical(t *testing.T) {
	plan, _ := buildParallelPlan(t)
	for _, mode := range []Mode{ModeExhaustive, ModeSorted, ModeBuckets} {
		want := Run(plan, Options{K: 10, Mode: mode})
		a := GetArena()
		for i := 0; i < 3; i++ {
			a.Reset()
			got := Run(plan, Options{K: 10, Mode: mode, Arena: a})
			if len(got) != len(want) {
				t.Fatalf("mode %v run %d: %d answers vs %d", mode, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("mode %v run %d answer %d: %+v vs %+v", mode, i, j, got[j], want[j])
				}
			}
			// Parallel workers must not touch the shared arena.
			par := Run(plan, Options{K: 10, Mode: mode, Arena: a, Parallel: 4})
			for j := range want {
				if par[j] != want[j] {
					t.Fatalf("mode %v parallel answer %d: %+v vs %+v", mode, j, par[j], want[j])
				}
			}
		}
		PutArena(a)
	}
}

// TestArenaConcurrentSearches runs independent arena-backed evaluations
// concurrently (each goroutine with its own pooled arena); meaningful
// under -race, where any cross-arena sharing shows up as a data race.
func TestArenaConcurrentSearches(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := randomDoc(r)
	ix := ir.NewIndex(d)
	ev := NewEvaluator(d, ix)
	q := tpq.MustParse(`//a[./b]`)
	want := ev.Evaluate(q)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				a := GetArena()
				full := ev.EvaluateFullArena(q, a)
				var got []xmltree.NodeID
				if full != nil {
					got = full[q.Dist]
				}
				if !sameNodes(got, want) {
					PutArena(a)
					done <- &mismatchError{}
					return
				}
				PutArena(a)
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal("concurrent arena evaluation diverged")
		}
	}
}

type mismatchError struct{}

func (*mismatchError) Error() string { return "mismatch" }
