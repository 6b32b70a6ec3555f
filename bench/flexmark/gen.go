package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
)

// Every input of a run — corpus, query strings, op order, mutation schedule —
// is drawn from streams derived from the run's seed, so two runs with the
// same seed issue byte-identical work and the program under test only ever
// sees the generated inputs.

// stream returns an independent random stream for one named purpose of one
// seed, so adding a draw to one generator never shifts another's output.
func stream(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// memberSeed is the xmark seed of member i of a seed's corpus.
func memberSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// keywords are the terms full-text predicates and article text draw on. They
// are a subset of internal/xmark's vocabulary, so a contains predicate
// selects something on both the auction corpus and the article corpus.
var keywords = []string{
	"xml", "streaming", "algorithm", "query", "relaxation", "gold", "silver",
	"vintage", "rare", "antique", "auction", "bid", "price", "ship", "mint",
	"condition", "original", "signed", "limited", "edition", "collector",
	"estate", "market", "value", "appraisal", "certificate", "authentic",
	"restored", "pristine", "damaged", "worn", "fragile", "heavy", "light",
	"large", "small", "medium", "ornate", "plain", "carved", "painted",
	"glazed", "ceramic", "porcelain", "brass", "copper", "bronze", "iron",
	"steel", "wooden", "oak", "maple", "walnut", "leather", "silk", "cotton",
	"wool", "linen", "velvet", "crystal", "glass", "stone", "marble", "granite",
}

// hotKeywords is how many leading entries of keywords internal/xmark draws
// five times as often as the rest.
const hotKeywords = 8

// ftExpr draws a full-text expression: two distinct keywords of ordinary
// frequency, either of which satisfies it. Every expression is therefore
// about equally selective. A mix of single keywords, conjunctions and the
// generator's frequent words made an op's cost bimodal — a selective
// expression leaves a member short of K exact answers and sends it down the
// relaxation chain — with the median of a class between the two modes.
func ftExpr(r *rand.Rand) string {
	plain := keywords[hotKeywords:]
	a := r.Intn(len(plain))
	b := r.Intn(len(plain) - 1)
	if b >= a {
		b++
	}
	return strconv.Quote(plain[a]) + " or " + strconv.Quote(plain[b])
}

// freshQueries hands out query strings that have not been issued before in
// the run: a structural shape with a newly drawn full-text expression in its
// %s slot. A fresh string misses the result caches and the plan-template
// cache of every member, which is the point of the coll_adhoc workload.
type freshQueries struct {
	r    *rand.Rand
	seen map[string]bool
}

func newFreshQueries(seed int64) *freshQueries {
	return &freshQueries{r: stream(seed, "fresh-queries"), seen: map[string]bool{}}
}

func (f *freshQueries) next(shape string) string {
	for {
		q := fmt.Sprintf(shape, ftExpr(f.r))
		if !f.seen[q] {
			f.seen[q] = true
			return q
		}
	}
}

func words(r *rand.Rand, b *bytes.Buffer, n int) {
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(keywords[r.Intn(len(keywords))])
	}
}

func element(r *rand.Rand, b *bytes.Buffer, tag string, nWords int) {
	b.WriteString("<" + tag + ">")
	words(r, b, nWords)
	b.WriteString("</" + tag + ">")
}

// genArticle writes one article document of about target bytes: title,
// authors, abstract, sections of paragraphs (some naming an algorithm, some
// with figures, some nested), references. The flexload generator's 300-byte
// documents re-index in microseconds; at 32-128 KB a replace costs what a
// real document's does, so the write path shows in serve_mixed.
func genArticle(r *rand.Rand, id string, target int) []byte {
	var b bytes.Buffer
	b.Grow(target + 4096)
	fmt.Fprintf(&b, `<article id=%q>`, id)
	element(r, &b, "title", 3+r.Intn(5))
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		element(r, &b, "author", 2)
	}
	element(r, &b, "abstract", 40+r.Intn(40))
	for b.Len() < target {
		genSection(r, &b, 0)
	}
	b.WriteString("<references>")
	for i, n := 0, 5+r.Intn(15); i < n; i++ {
		element(r, &b, "ref", 6+r.Intn(8))
	}
	b.WriteString("</references></article>")
	return b.Bytes()
}

func genSection(r *rand.Rand, b *bytes.Buffer, depth int) {
	b.WriteString("<section>")
	element(r, b, "title", 2+r.Intn(4))
	for i, n := 0, 2+r.Intn(5); i < n; i++ {
		b.WriteString("<paragraph>")
		words(r, b, 40+r.Intn(80))
		if r.Intn(4) == 0 {
			b.WriteByte(' ')
			element(r, b, "algorithm", 1+r.Intn(2))
		}
		b.WriteString("</paragraph>")
	}
	if r.Intn(10) < 3 {
		b.WriteString("<figure>")
		element(r, b, "caption", 5+r.Intn(10))
		b.WriteString("</figure>")
	}
	if depth < 2 && r.Intn(20) < 7 {
		genSection(r, b, depth+1)
	}
	b.WriteString("</section>")
}

// shape is one structural query form with a %s slot for a full-text
// expression, and the K it is issued with.
type shape struct {
	q string
	k int
}

// articleShapes is the query pool of the serve_mixed workload. Two of the
// eight ask for a deeper ranking, so a cache miss is not one uniform cost.
var articleShapes = []shape{
	{`//article[./title and ./section/paragraph[.contains(%s)]]`, 10},
	{`//section[./title and ./paragraph[.contains(%s)]]`, 10},
	{`//article[.//algorithm and ./section[./paragraph and .contains(%s)]]`, 10},
	{`//article[./abstract[.contains(%s)]]`, 10},
	{`//section[./section/paragraph and ./figure/caption[.contains(%s)]]`, 20},
	{`//article[./author and ./references/ref[.contains(%s)]]`, 10},
	{`//paragraph[./algorithm and .contains(%s)]`, 50},
	{`//article[./section/section/paragraph and ./abstract and .contains(%s)]`, 10},
}

// The paper's three experiment queries (§6, "Dataset and Queries").
const (
	xq1 = `//item[./description/parlist]`
	xq2 = `//item[./description/parlist and ./mailbox/mail/text]`
	xq3 = `//item[./description/parlist/listitem and ` +
		`./mailbox/mail/text[./bold and ./keyword and ./emph] and ./name and ./incategory]`
)
