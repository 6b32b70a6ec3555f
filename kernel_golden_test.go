package flexpath

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flexpath/internal/xmark"
)

// The relaxation kernel (internal/tpq universe/bitset fixpoints, the
// index-based chain builder in internal/core) must reproduce, bit for
// bit, the chains and rankings of the map-based implementation it
// replaced. testdata/kernel_golden.json was written by this test at the
// last commit that still ran the map-based fixpoint in production;
// -update-kernel-golden rewrites it and is only legitimate for a change
// that means to alter rankings.
var updateKernelGolden = flag.Bool("update-kernel-golden", false,
	"rewrite testdata/kernel_golden.json from the current implementation")

type kernelGoldenStep struct {
	Dropped  []string `json:"dropped"`
	Penalty  string   `json:"penalty"` // math.Float64bits, hex
	SS       string   `json:"ss"`
	DistID   int      `json:"dist"`
	Desc     string   `json:"desc"`
	Canon    string   `json:"canon"`
	StepBits string   `json:"bits"`
}

type kernelGoldenAnswer struct {
	Node int    `json:"node"`
	SS   string `json:"ss"`
	KS   string `json:"ks"`
}

type kernelGoldenQuery struct {
	Name  string                          `json:"name"`
	Query string                          `json:"query"`
	Base  string                          `json:"base"`
	Steps []kernelGoldenStep              `json:"steps"`
	TopK  map[string][]kernelGoldenAnswer `json:"top10"`
}

func f64bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// kernelGoldenCases are the eleven coll_adhoc shapes of the benchmark
// with fixed keywords, the paper's XQ1-XQ3, and one query with per-edge
// weights evaluated under non-uniform weights and a type hierarchy.
type kernelGoldenCase struct {
	name, query string
	opts        SearchOptions
}

func kernelGoldenCases() []kernelGoldenCase {
	adhoc := []string{
		`//item[./name and ./description[.contains(%s)]]`,
		`//mail[./from and ./text[.contains(%s)]]`,
		`//category[./name and ./description[.contains(%s)]]`,
		`//item[./description/parlist and .contains(%s)]`,
		`//listitem[./text[.contains(%s)]]`,
		`//item[./location and ./name[.contains(%s)]]`,
		`//open_auction[./initial and ./annotation[.contains(%s)]]`,
		`//closed_auction[./price and ./annotation[.contains(%s)]]`,
		`//description[./parlist/listitem[.contains(%s)]]`,
		`//mailbox[./mail/text[.contains(%s)]]`,
		`//open_auction[./bidder/date and ./annotation/description[.contains(%s)]]`,
	}
	var cases []kernelGoldenCase
	add := func(name, query string, opts SearchOptions) {
		cases = append(cases, kernelGoldenCase{name, query, opts})
	}
	for i, sh := range adhoc {
		add(fmt.Sprintf("adhoc%02d", i), fmt.Sprintf(sh, `"vintage" or "walnut"`), SearchOptions{})
	}
	add("xq1", `//item[./description/parlist]`, SearchOptions{})
	add("xq2", `//item[./description/parlist and ./mailbox/mail/text]`, SearchOptions{})
	add("xq3", `//item[./description/parlist/listitem and `+
		`./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]`, SearchOptions{})
	add("weighted_hierarchy",
		`//item[./description^2.5/block and ./mailbox/mail^0.5[./text[.contains("gold" and "rare")]] and ./name[.contains("silver")]]`,
		SearchOptions{
			Weights:   Weights{Structural: 2, Contains: 1.5},
			Hierarchy: map[string]string{"parlist": "block", "listitem": "block"},
		})
	return cases
}

func TestKernelGolden(t *testing.T) {
	tree, err := xmark.Build(xmark.Config{TargetBytes: 512 << 10, Seed: 20040613})
	if err != nil {
		t.Fatal(err)
	}
	doc := NewDocument(tree)

	var got []kernelGoldenQuery
	for _, c := range kernelGoldenCases() {
		q, err := ParseQuery(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tmpl, err := doc.template(q, c.opts.Weights, c.opts.Hierarchy)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ch := tmpl.Chain
		g := kernelGoldenQuery{Name: c.name, Query: c.query, Base: f64bits(ch.Base), TopK: map[string][]kernelGoldenAnswer{}}
		for j, s := range ch.Steps {
			gs := kernelGoldenStep{
				Penalty:  f64bits(s.Penalty),
				SS:       f64bits(s.SS),
				DistID:   s.DistID,
				Desc:     s.Desc,
				Canon:    s.Query.Canon(),
				StepBits: fmt.Sprintf("%016x", ch.StepBits(j+1)),
			}
			for _, p := range s.Dropped {
				gs.Dropped = append(gs.Dropped, p.Key())
			}
			g.Steps = append(g.Steps, gs)
		}
		for _, algo := range []Algorithm{DPO, SSO, Hybrid} {
			opts := c.opts
			opts.K = 10
			opts.Algorithm = algo
			opts.NoCache = true
			as, err := doc.Search(q, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", c.name, algo, err)
			}
			list := []kernelGoldenAnswer{}
			for _, a := range as {
				list = append(list, kernelGoldenAnswer{Node: int(a.node), SS: f64bits(a.Structural), KS: f64bits(a.Keyword)})
			}
			g.TopK[algo.String()] = list
		}
		got = append(got, g)
	}

	path := filepath.Join("testdata", "kernel_golden.json")
	if *updateKernelGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []kernelGoldenQuery
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d queries, test builds %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Name != g.Name || w.Query != g.Query {
			t.Fatalf("case %d is %s, golden has %s", i, g.Name, w.Name)
		}
		if w.Base != g.Base {
			t.Errorf("%s: base %s, want %s", w.Name, g.Base, w.Base)
		}
		if len(w.Steps) != len(g.Steps) {
			t.Errorf("%s: %d steps, want %d", w.Name, len(g.Steps), len(w.Steps))
			continue
		}
		for j := range w.Steps {
			if !reflect.DeepEqual(w.Steps[j], g.Steps[j]) {
				t.Errorf("%s step %d:\n got %+v\nwant %+v", w.Name, j+1, g.Steps[j], w.Steps[j])
			}
		}
		for algo, wl := range w.TopK {
			if !reflect.DeepEqual(wl, g.TopK[algo]) {
				t.Errorf("%s top-10 under %s:\n got %+v\nwant %+v", w.Name, algo, g.TopK[algo], wl)
			}
		}
	}
}
