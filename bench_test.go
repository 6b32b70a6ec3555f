package flexpath

// Benchmarks regenerating the FleXPath paper's experiments (§6). One
// benchmark group per figure; cmd/flexbench runs the same sweeps at the
// paper's full scales and prints the series. Document sizes here are kept
// small so `go test -bench=.` completes quickly; see EXPERIMENTS.md for
// the shapes at 1-100 MB.

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"flexpath/internal/xmark"
)

// Experiment queries (§6, "Dataset and Queries").
const (
	benchXQ1 = `//item[./description/parlist]`
	benchXQ2 = `//item[./description/parlist and ./mailbox/mail/text]`
	benchXQ3 = `//item[./description/parlist/listitem and ` +
		`./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]`
)

var (
	benchDocs   = map[int64]*Document{}
	benchDocsMu sync.Mutex
)

func benchDoc(b *testing.B, kb int64) *Document {
	b.Helper()
	benchDocsMu.Lock()
	defer benchDocsMu.Unlock()
	if d, ok := benchDocs[kb]; ok {
		return d
	}
	tree, err := xmark.Build(xmark.Config{TargetBytes: kb << 10, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	d := NewDocument(tree)
	benchDocs[kb] = d
	return d
}

func benchSearch(b *testing.B, d *Document, query string, algo Algorithm, k int) {
	b.Helper()
	q := MustParseQuery(query)
	opts := SearchOptions{K: k, Algorithm: algo}
	if _, err := d.Search(q, opts); err != nil { // warm up chain + IR caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Search(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig09 — Figure 9: DPO vs SSO while the number of admissible
// relaxations grows (XQ1 < XQ2 < XQ3), 1 MB document, K=50.
func BenchmarkFig09(b *testing.B) {
	d := benchDoc(b, 1<<10)
	for _, w := range []struct{ name, q string }{
		{"XQ1", benchXQ1}, {"XQ2", benchXQ2}, {"XQ3", benchXQ3},
	} {
		for _, algo := range []Algorithm{DPO, SSO} {
			b.Run(fmt.Sprintf("%s/%v", w.name, algo), func(b *testing.B) {
				benchSearch(b, d, w.q, algo, 50)
			})
		}
	}
}

// BenchmarkFig10 — Figure 10: DPO vs SSO as K grows, XQ3.
func BenchmarkFig10(b *testing.B) {
	d := benchDoc(b, 4<<10)
	for _, k := range []int{50, 200, 600} {
		for _, algo := range []Algorithm{DPO, SSO} {
			b.Run(fmt.Sprintf("K=%d/%v", k, algo), func(b *testing.B) {
				benchSearch(b, d, benchXQ3, algo, k)
			})
		}
	}
}

// BenchmarkFig11 — Figure 11: DPO vs SSO across document sizes at small K
// (XQ2, K=12); the algorithms should be close.
func BenchmarkFig11(b *testing.B) {
	for _, kb := range []int64{512, 1 << 10, 2 << 10, 4 << 10} {
		d := benchDoc(b, kb)
		for _, algo := range []Algorithm{DPO, SSO} {
			b.Run(fmt.Sprintf("%dKB/%v", kb, algo), func(b *testing.B) {
				benchSearch(b, d, benchXQ2, algo, 12)
			})
		}
	}
}

// BenchmarkFig12 — Figure 12: DPO vs SSO across document sizes at large K
// (XQ2, K=500); SSO should win and the gap grow with size.
func BenchmarkFig12(b *testing.B) {
	for _, kb := range []int64{512, 1 << 10, 2 << 10, 4 << 10} {
		d := benchDoc(b, kb)
		for _, algo := range []Algorithm{DPO, SSO} {
			b.Run(fmt.Sprintf("%dKB/%v", kb, algo), func(b *testing.B) {
				benchSearch(b, d, benchXQ2, algo, 500)
			})
		}
	}
}

// BenchmarkFig13 — Figure 13: SSO vs Hybrid while the number of
// relaxations grows (K=500).
func BenchmarkFig13(b *testing.B) {
	d := benchDoc(b, 4<<10)
	for _, w := range []struct{ name, q string }{
		{"XQ1", benchXQ1}, {"XQ2", benchXQ2}, {"XQ3", benchXQ3},
	} {
		for _, algo := range []Algorithm{SSO, Hybrid} {
			b.Run(fmt.Sprintf("%s/%v", w.name, algo), func(b *testing.B) {
				benchSearch(b, d, w.q, algo, 500)
			})
		}
	}
}

// BenchmarkFig14 — Figure 14: SSO vs Hybrid across document sizes (XQ3,
// K=500).
func BenchmarkFig14(b *testing.B) {
	for _, kb := range []int64{512, 1 << 10, 2 << 10, 4 << 10} {
		d := benchDoc(b, kb)
		for _, algo := range []Algorithm{SSO, Hybrid} {
			b.Run(fmt.Sprintf("%dKB/%v", kb, algo), func(b *testing.B) {
				benchSearch(b, d, benchXQ3, algo, 500)
			})
		}
	}
}

// BenchmarkFig15 — Figure 15: SSO vs Hybrid as K grows (medium document,
// XQ3).
func BenchmarkFig15(b *testing.B) {
	d := benchDoc(b, 4<<10)
	for _, k := range []int{50, 200, 600} {
		for _, algo := range []Algorithm{SSO, Hybrid} {
			b.Run(fmt.Sprintf("K=%d/%v", k, algo), func(b *testing.B) {
				benchSearch(b, d, benchXQ3, algo, k)
			})
		}
	}
}

// BenchmarkFig16 — Figure 16: SSO vs Hybrid as K grows on the large
// document (XQ3).
func BenchmarkFig16(b *testing.B) {
	d := benchDoc(b, 8<<10)
	for _, k := range []int{50, 200, 600} {
		for _, algo := range []Algorithm{SSO, Hybrid} {
			b.Run(fmt.Sprintf("K=%d/%v", k, algo), func(b *testing.B) {
				benchSearch(b, d, benchXQ3, algo, k)
			})
		}
	}
}

// BenchmarkSubstrates measures the building blocks: parsing, indexing,
// statistics collection and chain construction on a 1 MB document.
func BenchmarkSubstrates(b *testing.B) {
	cfg := xmark.Config{TargetBytes: 1 << 20, Seed: 42}
	b.Run("xmark-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xmark.Build(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	tree, err := xmark.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("index+stats", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewDocument(tree)
		}
	})
	d := NewDocument(tree)
	b.Run("chain-build", func(b *testing.B) {
		q := MustParseQuery(benchXQ3)
		for i := 0; i < b.N; i++ {
			// Bypass the cache by varying weights marginally.
			w := Weights{Structural: 1 + float64(i%7)*1e-9, Contains: 1}
			if _, err := d.template(q, w, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchColdMember saves a 512 KB document as FXP3 and adds it cold to a
// collection capped at one resident member.
func benchColdMember(b *testing.B) (*Collection, *member, string) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "m.fxp3")
	if err := benchDoc(b, 512).SaveFXP3SnapshotFile(path); err != nil {
		b.Fatal(err)
	}
	c := NewCollection()
	b.Cleanup(func() { c.Close() }) //nolint:errcheck
	if err := c.AddSnapshotFile("m", path); err != nil {
		b.Fatal(err)
	}
	members := c.members()
	return c, members[0], path
}

// BenchmarkFaultIn times a member's first fault: map, parse the
// directory, checksum and validate every section once, slice the columns.
func BenchmarkFaultIn(b *testing.B) {
	_, _, path := benchColdMember(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCollection()
		if err := c.AddSnapshotFile("m", path); err != nil {
			b.Fatal(err)
		}
		members := c.members()
		if _, err := c.require(members[0], nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Close() //nolint:errcheck
		b.StartTimer()
	}
}

// coldShapes are coll_cold's seven query shapes: six light ones and XQ2,
// with fixed keyword pairs standing in for the benchmark's seeded draws.
var coldShapes = []string{
	benchXQ1,
	`//item[./description[.contains("auction" or "antique")]]`,
	`//mail[./text[.contains("bid" or "price")]]`,
	`//listitem[./text[.contains("ship" or "mint")]]`,
	`//category[./name and ./description[.contains("rare" or "signed")]]`,
	`//item[./name and ./incategory]`,
	benchXQ2,
}

// BenchmarkColdCollectionSearch is coll_cold in small: 8 members of
// 128 KB saved as FXP3 and added cold. One op is one Hybrid search,
// result caches bypassed, cycling through coldShapes after a warm-up
// round that pays the members' only faults and builds their templates.
func BenchmarkColdCollectionSearch(b *testing.B) {
	dir := b.TempDir()
	c := NewCollection()
	b.Cleanup(func() { c.Close() }) //nolint:errcheck
	for i := 0; i < 8; i++ {
		tree, err := xmark.Build(xmark.Config{TargetBytes: 128 << 10, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("m%d.fxp3", i))
		if err := NewDocument(tree).SaveFXP3SnapshotFile(path); err != nil {
			b.Fatal(err)
		}
		if err := c.AddSnapshotFile(fmt.Sprintf("m%d", i), path); err != nil {
			b.Fatal(err)
		}
	}
	opts := SearchOptions{K: 10, Algorithm: Hybrid, NoCache: true}
	qs := make([]*Query, len(coldShapes))
	for i, s := range coldShapes {
		qs[i] = MustParseQuery(s)
		for range 2 { // a template is kept on its second sighting
			if _, err := c.Search(qs[i], opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Search(qs[i%len(qs)], opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectionSearch is the collection search path over 8 in-memory
// members of 128 KB with a result cache of 1024, as flexserve configures
// them. One op is one Hybrid
// search of XQ2 at K=10:
//
//   - miss: result caches bypassed, every member evaluated;
//   - hit: the same search again, answered from the result cache;
//   - after-replace: one member is replaced (untimed) before the search,
//     alternating between two copies of its document;
//   - adhoc: each op parses a query never seen before, in one of the
//     frozen benchmark's coll_adhoc shapes, so every member builds a
//     relaxation chain and a plan template.
func BenchmarkCollectionSearch(b *testing.B) {
	c := NewCollection()
	c.SetCache(1024)
	var spare [2]*Document
	for i := 0; i < 8; i++ {
		tree, err := xmark.Build(xmark.Config{TargetBytes: 128 << 10, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Add(fmt.Sprintf("m%d", i), NewDocument(tree)); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			spare = [2]*Document{NewDocument(tree), NewDocument(tree)}
		}
	}
	q := MustParseQuery(benchXQ2)
	opts := SearchOptions{K: 10, Algorithm: Hybrid}
	search := func(opts SearchOptions) {
		if _, err := c.Search(q, opts); err != nil {
			b.Fatal(err)
		}
	}
	// Each warm-up searches twice: a template or an entry is kept on its
	// second sighting.
	b.Run("miss", func(b *testing.B) {
		nc := opts
		nc.NoCache = true
		search(nc)
		search(nc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search(nc)
		}
	})
	b.Run("hit", func(b *testing.B) {
		search(opts)
		search(opts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search(opts)
		}
	})
	b.Run("after-replace", func(b *testing.B) {
		search(opts)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := c.Replace("m0", spare[i%2]); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			search(opts)
		}
	})
	ops := 0
	b.Run("adhoc", func(b *testing.B) {
		shapes := []string{
			`//item[./name and ./description[.contains(%s)]]`,
			`//mail[./from and ./text[.contains(%s)]]`,
			`//item[./description/parlist and .contains(%s)]`,
			`//open_auction[./bidder/date and ./annotation/description[.contains(%s)]]`,
		}
		// Both terms of an expression occur in every member, so each op
		// merges two witness lists as coll_adhoc's expressions do; the
		// words are the 56 of ordinary frequency that coll_adhoc draws
		// from. Shape and ordered pair vary together, and the op counter
		// carries on across the benchmark's rounds: the first
		// 4 · 56 · 55 = 12320 ops are distinct queries, so each misses
		// every cache.
		words := strings.Fields(`rare antique auction bid price ship mint
			condition original signed limited edition collector estate
			market value appraisal certificate authentic restored pristine
			damaged worn fragile heavy light large small medium ornate plain
			carved painted glazed ceramic porcelain brass copper bronze iron
			steel wooden oak maple walnut leather silk cotton wool linen
			velvet crystal glass stone marble granite`)
		var pairs [][2]string
		for x := range words {
			for y := range words {
				if x != y {
					pairs = append(pairs, [2]string{words[x], words[y]})
				}
			}
		}
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			i := ops
			ops++
			p := pairs[(i/len(shapes))%len(pairs)]
			ft := fmt.Sprintf(`"%s" or "%s"`, p[0], p[1])
			q, err := ParseQuery(fmt.Sprintf(shapes[i%len(shapes)], ft))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.Search(q, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
