package exec

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flexpath/internal/ir"
	"flexpath/internal/tpq"
	"flexpath/internal/xmltree"
)

// leafDoc is a random document whose text holds three common words and
// one rare one, so that some witness lists are short enough for
// evaluateLeaf's Within base to walk up from the witnesses.
func leafDoc(r *rand.Rand) *xmltree.Document {
	b := xmltree.NewBuilder()
	var build func(depth int)
	build = func(depth int) {
		b.Open([]string{"a", "b", "c", "d"}[r.Intn(4)], xmltree.Attr{Name: "v", Value: string(rune('0' + r.Intn(5)))})
		switch k := r.Intn(40); {
		case k == 0:
			b.Text("omega")
		case k < 20:
			b.Text([]string{"alpha", "beta", "gamma"}[k%3])
		}
		if depth < 6 {
			for i := 0; i < r.Intn(4); i++ {
				build(depth + 1)
			}
		}
		b.Close()
	}
	build(0)
	d, err := b.Document()
	if err != nil {
		panic(err)
	}
	return d
}

// TestLeafFilterMatchesSatisfies: evaluateLeaf's galloping semijoin keeps
// exactly the candidates a per-node Satisfies scan keeps, whether its base
// is one tag's list, a merged multi-tag (hierarchy) list or the
// witness-first Within list, for one tag and for several; and
// CountSatisfyingWithTag equals a naive count over the witnesses.
func TestLeafFilterMatchesSatisfies(t *testing.T) {
	exprs := []string{"alpha", "omega", "alpha or gamma", "alpha and beta",
		`"alpha beta"`, "gamma and not alpha", "missing"}
	tags := []string{"a", "b", "c", "d"}
	r := rand.New(rand.NewSource(28))
	var single, multi, witnessFirst, witnessMulti int
	for i := 0; i < 150; i++ {
		d := leafDoc(r)
		ix := ir.NewIndex(d)
		res := make([]*ir.Result, len(exprs))
		for k, src := range exprs {
			res[k] = ix.Eval(ir.MustParseExpr(src))
		}
		for trial := 0; trial < 20; trial++ {
			v := &VarSpec{Tag: tags[r.Intn(len(tags))]}
			if r.Intn(2) == 0 {
				v.Tags = []string{tags[r.Intn(2)], tags[2+r.Intn(2)]}
			}
			if r.Intn(3) == 0 {
				v.Values = []tpq.ValuePred{{Attr: "v", Op: tpq.OpLt, Value: "3"}}
			}
			for c := r.Intn(3); c > 0; c-- {
				v.Contains = append(v.Contains, ContainsSpec{Res: res[r.Intn(len(res))], Required: r.Intn(4) > 0})
			}
			var want []xmltree.NodeID
		nodes:
			for n := xmltree.NodeID(0); int(n) < d.Len(); n++ {
				if !slices.Contains(v.Tags, d.TagName(n)) && (len(v.Tags) > 0 || d.TagName(n) != v.Tag) {
					continue
				}
				for _, vp := range v.Values {
					if !EvalValuePred(d, n, vp) {
						continue nodes
					}
				}
				for _, c := range v.Contains {
					if c.Required && !c.Res.Satisfies(n) {
						continue nodes
					}
				}
				want = append(want, n)
			}
			got := evaluateLeaf(d, v)
			if !slices.Equal(got, want) {
				t.Fatalf("doc %d %+v: evaluateLeaf = %v, Satisfies scan = %v", i, v, got, want)
			}
			switch walks := leafStartsFromWitnesses(d, v); {
			case walks && len(v.Tags) > 1:
				witnessMulti++
			case walks:
				witnessFirst++
			case len(v.Tags) > 1:
				multi++
			default:
				single++
			}
		}
		for _, rs := range res {
			for _, tag := range tags {
				want := 0
				for _, n := range d.NodesWithTag(tag) {
					for w := 0; w < rs.Len(); w++ {
						if d.Contains(n, rs.Node(w)) {
							want++
							break
						}
					}
				}
				if got := rs.CountSatisfyingWithTag(tag); got != want {
					t.Fatalf("doc %d: CountSatisfyingWithTag(%s) = %d, naive count %d", i, tag, got, want)
				}
			}
		}
	}
	if single == 0 || multi == 0 || witnessFirst == 0 || witnessMulti == 0 {
		t.Fatalf("bases not all exercised: %d single-tag, %d multi-tag, %d witness-first, %d witness-first multi-tag",
			single, multi, witnessFirst, witnessMulti)
	}
}

// leafStartsFromWitnesses reports whether evaluateLeaf's base is a Within
// list that walks up from the witnesses, by Within's rule.
func leafStartsFromWitnesses(d *xmltree.Document, v *VarSpec) bool {
	smallest := -1
	for _, c := range v.Contains {
		if c.Required && (smallest < 0 || c.Res.Len() < smallest) {
			smallest = c.Res.Len()
		}
	}
	tags := v.Tags
	if len(tags) == 0 {
		tags = []string{v.Tag}
	}
	for _, tag := range tags {
		if smallest >= 0 && smallest*16 < len(d.NodesWithTag(tag)) {
			return true
		}
	}
	return false
}

// TestWitnessFirstLeafEquivalence: the leaf, and the Within list it
// starts from, must hold exactly the candidates a tag scan keeps, for a
// rare predicate (Within walks up from the witnesses) and a common one
// (Within scans the tag list).
func TestWitnessFirstLeafEquivalence(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<lib>")
	for i := 0; i < 400; i++ {
		sb.WriteString("<book><para>common words everywhere")
		if i%97 == 0 {
			sb.WriteString(" rareterm")
		}
		sb.WriteString("</para></book>")
	}
	sb.WriteString("</lib>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	ix := ir.NewIndex(doc)
	for _, term := range []string{"rareterm", "common"} {
		res := ix.Eval(ir.MustParseExpr(term))
		v := &VarSpec{Tag: "para", Contains: []ContainsSpec{{Res: res, Required: true}}}
		got := evaluateLeaf(doc, v)
		// Reference: tag scan + Satisfies filter.
		var want []xmltree.NodeID
		for _, n := range doc.NodesWithTag("para") {
			if res.Satisfies(n) {
				want = append(want, n)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d candidates, want %d", term, len(got), len(want))
		}
		if within := res.Within("para"); !slices.Equal(within, want) {
			t.Fatalf("%s: Within = %d nodes, want %d", term, len(within), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: candidate %d differs", term, i)
			}
		}
	}
}
