// Package xmark generates synthetic auction-site XML documents in the
// shape of the XMark benchmark (Schmidt et al., VLDB 2002), which the
// FleXPath paper uses for all experiments.
//
// The generator is a substitution for the original C xmlgen tool. It
// preserves the three DTD properties the paper's experiments exploit:
//
//   - recursive nodes (parlist inside listitem inside parlist), which
//     enable axis generalization;
//   - optional nodes (incategory, text inside mail), which enable leaf
//     deletion; and
//   - shared nodes (text occurs under listitem, mail, mailbox and
//     description), which enable subtree promotion.
//
// It deliberately deviates from the strict XMark DTD in one respect: the
// content models are probabilistic rather than fixed, so that every
// relaxation of the paper's workload queries is productive (admits answers
// the strict query misses). For example, a description may contain a
// parlist directly, behind an intermediate par element, or not at all, so
// relaxing ./description/parlist to ./description//parlist genuinely
// broadens the result.
//
// Generation is deterministic: the same Config produces byte-identical
// output, and Build produces exactly the document that Parse(Generate)
// would.
package xmark

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"

	"flexpath/internal/xmltree"
)

// Config controls document generation.
type Config struct {
	// TargetBytes is the approximate size of the serialized document.
	// The generator stops opening new top-level entities once the running
	// byte count passes section budgets derived from this value; actual
	// output is within a few percent of the target.
	TargetBytes int64
	// Seed selects the pseudo-random stream. Equal seeds give equal
	// documents.
	Seed int64
}

// Generate writes an XMark-shaped document of roughly cfg.TargetBytes to w.
func Generate(w io.Writer, cfg Config) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	s := &writerSink{w: bw}
	emit(s, cfg)
	if s.err != nil {
		return s.err
	}
	return bw.Flush()
}

// Build constructs the generated document directly as an xmltree.Document,
// bypassing XML serialization and re-parsing. Build(cfg) is equivalent to
// Parse(Generate(cfg)) but much faster.
func Build(cfg Config) (*xmltree.Document, error) {
	s := &builderSink{b: xmltree.NewBuilder()}
	emit(s, cfg)
	d, err := s.b.Document()
	if err != nil {
		return nil, fmt.Errorf("xmark: %w", err)
	}
	return d, nil
}

// sink abstracts the two output targets. Both count serialized bytes the
// same way so that size-driven generation decisions are identical.
type sink interface {
	open(tag string)
	openAttr(tag, attrName, attrValue string)
	text(s string)
	close(tag string)
	bytes() int64
}

type writerSink struct {
	w   *bufio.Writer
	n   int64
	err error
}

func (s *writerSink) write(str string) {
	if s.err != nil {
		return
	}
	_, s.err = s.w.WriteString(str)
	s.n += int64(len(str))
}

func (s *writerSink) open(tag string) { s.write("<" + tag + ">") }
func (s *writerSink) openAttr(tag, an, av string) {
	s.write("<" + tag + " " + an + `="` + av + `">`)
}
func (s *writerSink) text(t string)    { s.write(t) }
func (s *writerSink) close(tag string) { s.write("</" + tag + ">") }
func (s *writerSink) bytes() int64     { return s.n }

type builderSink struct {
	b *xmltree.Builder
	n int64
}

func (s *builderSink) open(tag string) {
	s.b.Open(tag)
	s.n += int64(len(tag)) + 2
}

func (s *builderSink) openAttr(tag, an, av string) {
	s.b.Open(tag, xmltree.Attr{Name: an, Value: av})
	s.n += int64(len(tag)+len(an)+len(av)) + 6
}

func (s *builderSink) text(t string) {
	s.b.Text(t)
	s.n += int64(len(t))
}

func (s *builderSink) close(tag string) {
	s.b.Close()
	s.n += int64(len(tag)) + 3
}

func (s *builderSink) bytes() int64 { return s.n }

// textMarkupProb is the probability of each inline markup child
// (bold/keyword/emph) inside any text element.
const textMarkupProb = 0.8

var regions = []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}

// vocabulary supplies the textual content. The first few words are "hot":
// they appear with elevated frequency so that full-text predicates have
// selective but non-empty results.
var vocabulary = []string{
	"xml", "streaming", "algorithm", "query", "relaxation",
	"gold", "silver", "vintage", "rare", "antique", "auction", "bid",
	"price", "ship", "mint", "condition", "original", "signed", "limited",
	"edition", "collector", "estate", "market", "value", "appraisal",
	"certificate", "authentic", "restored", "pristine", "damaged", "worn",
	"fragile", "heavy", "light", "large", "small", "medium", "ornate",
	"plain", "carved", "painted", "glazed", "ceramic", "porcelain", "brass",
	"copper", "bronze", "iron", "steel", "wooden", "oak", "maple", "walnut",
	"leather", "silk", "cotton", "wool", "linen", "velvet", "crystal",
	"glass", "stone", "marble", "granite", "jade", "pearl", "amber",
	"ivory", "enamel", "lacquer", "gilt", "engraved", "embossed", "etched",
	"stamped", "numbered", "dated", "museum", "quality", "provenance",
	"documented", "catalog", "reference", "dealer", "private", "collection",
	"imported", "domestic", "handmade", "factory", "workshop", "studio",
	"artist", "maker", "mark", "label", "tag", "box", "case", "frame",
	"stand", "base", "lid", "handle", "spout", "rim", "foot", "neck",
	"body", "panel", "door", "drawer", "shelf", "mirror", "clock", "watch",
	"ring", "brooch", "pendant", "necklace", "bracelet", "coin", "medal",
	"stamp", "book", "manuscript", "map", "print", "poster", "painting",
	"drawing", "sculpture", "figurine", "vase", "bowl", "plate", "cup",
	"saucer", "teapot", "tray", "lamp", "chandelier", "candlestick", "rug",
	"tapestry", "quilt", "chair", "table", "desk", "cabinet", "chest",
	"wardrobe", "bed", "bench", "stool", "sofa", "garden", "ornament",
	"fountain", "urn", "gate", "fence", "tool", "instrument", "violin",
	"piano", "flute", "drum", "guitar", "camera", "lens", "radio",
	"phonograph", "typewriter", "telephone", "toy", "doll", "train",
	"model", "game", "puzzle", "card", "dice", "board", "sport", "ball",
	"bat", "glove", "racket", "club", "fishing", "reel", "rod", "knife",
	"sword", "shield", "armor", "helmet", "uniform", "badge", "button",
	"buckle", "textile", "sample", "pattern", "design",
}

var firstNames = []string{
	"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi",
	"ivan", "judy", "karl", "laura", "mike", "nina", "oscar", "peggy",
	"quinn", "rita", "sam", "tina", "ursula", "victor", "wendy", "xavier",
	"yara", "zeno",
}

var lastNames = []string{
	"smith", "jones", "taylor", "brown", "wilson", "evans", "thomas",
	"johnson", "roberts", "walker", "wright", "green", "hall", "wood",
	"clarke", "hughes", "edwards", "turner", "moore", "parker",
}

// gen carries generation state.
type gen struct {
	s       sink
	r       *rand.Rand
	itemSeq int
	catSeq  int
	perSeq  int
	aucSeq  int
	nItems  int
	nPeople int
	nCats   int
}

func emit(s sink, cfg Config) {
	if cfg.TargetBytes <= 0 {
		cfg.TargetBytes = 64 << 10
	}
	g := &gen{s: s, r: rand.New(rand.NewSource(cfg.Seed))}

	s.open("site")

	// Regions (items) get ~62% of the byte budget; the remaining sections
	// share the rest, mirroring XMark's proportions.
	itemBudget := cfg.TargetBytes * 62 / 100
	s.open("regions")
	for _, reg := range regions {
		s.open(reg)
		regionBudget := itemBudget / int64(len(regions))
		regionStart := s.bytes()
		for s.bytes()-regionStart < regionBudget {
			g.item()
		}
		s.close(reg)
	}
	s.close("regions")

	s.open("people")
	peopleBudget := cfg.TargetBytes * 74 / 100
	for s.bytes() < peopleBudget {
		g.person()
	}
	s.close("people")

	s.open("open_auctions")
	openBudget := cfg.TargetBytes * 85 / 100
	for s.bytes() < openBudget {
		g.openAuction()
	}
	s.close("open_auctions")

	s.open("closed_auctions")
	closedBudget := cfg.TargetBytes * 93 / 100
	for s.bytes() < closedBudget {
		g.closedAuction()
	}
	s.close("closed_auctions")

	s.open("categories")
	for s.bytes() < cfg.TargetBytes || g.nCats == 0 {
		g.category()
	}
	s.close("categories")

	s.close("site")
}

func (g *gen) words(n int) string {
	buf := make([]byte, 0, n*8)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ' ')
		}
		var w string
		// 18% of draws come from the small "hot" prefix of the
		// vocabulary so query terms are plentiful but not universal.
		if g.r.Float64() < 0.18 {
			w = vocabulary[g.r.Intn(8)]
		} else {
			w = vocabulary[g.r.Intn(len(vocabulary))]
		}
		buf = append(buf, w...)
	}
	return string(buf)
}

func (g *gen) element(tag, text string) {
	g.s.open(tag)
	g.s.text(text)
	g.s.close(tag)
}

// textBlock emits a text element containing words and, with probability
// markupProb each, inline bold/keyword/emph children. These three
// children are what query XQ3 branches on. As in XMark's DTD, text
// elements have the same content model in every context (inside
// listitems, descriptions, mailboxes and mails alike); keeping the markup
// probability uniform across contexts is what makes tag-level statistics
// (and hence SSO's selectivity estimates) accurate.
func (g *gen) textBlock(markupProb float64) {
	g.s.open("text")
	g.s.text(g.words(15 + g.r.Intn(21)))
	markup := false
	for _, tag := range [...]string{"bold", "keyword", "emph"} {
		if g.r.Float64() < markupProb {
			g.element(tag, g.words(1+g.r.Intn(3)))
			markup = true
		}
	}
	// A trailing run only follows inline markup; two adjacent text calls
	// would serialize as one character-data run but build as two.
	if markup && g.r.Float64() < 0.5 {
		g.s.text(g.words(2 + g.r.Intn(8)))
	}
	g.s.close("text")
}

// parlist emits a parlist with 1..4 listitems; listitems recurse into
// nested parlists with decreasing probability (recursive DTD node).
func (g *gen) parlist(depth int) {
	g.s.open("parlist")
	n := 1 + g.r.Intn(4)
	for i := 0; i < n; i++ {
		g.s.open("listitem")
		switch {
		case depth < 3 && g.r.Float64() < 0.25:
			g.parlist(depth + 1)
		default:
			g.textBlock(textMarkupProb)
		}
		g.s.close("listitem")
	}
	g.s.close("parlist")
}

// description emits one of three shapes: a direct parlist child (10%), a
// parlist behind an intermediate par element (20%, making
// description//parlist strictly broader than description/parlist), or
// plain text (70%). The selectivities are calibrated so that the paper's
// workload queries run in the same regime as on XMark: XQ1 has fewer than
// 50 exact matches per MB and each relaxation level adds answers.
func (g *gen) description() {
	g.s.open("description")
	switch p := g.r.Float64(); {
	case p < 0.10:
		g.parlist(0)
	case p < 0.30: // nolint: kept distinct from the direct case above
		g.s.open("par")
		g.parlist(0)
		g.s.close("par")
	default:
		g.textBlock(textMarkupProb)
	}
	g.s.close("description")
}

// mailbox emits mails for 25% of items (1..3 each); a mail carries a text
// with probability 0.55 (optional node), and the mailbox itself may carry
// a direct text annotation (shared node enabling promotion of text from
// mail to mailbox).
func (g *gen) mailbox() {
	g.s.open("mailbox")
	if g.r.Float64() < 0.15 {
		g.textBlock(textMarkupProb)
	}
	n := 0
	if g.r.Float64() < 0.25 {
		n = 1 + g.r.Intn(3)
	}
	for i := 0; i < n; i++ {
		g.s.open("mail")
		g.element("from", g.name())
		g.element("to", g.name())
		g.element("date", g.date())
		if g.r.Float64() < 0.55 {
			g.textBlock(textMarkupProb)
		}
		g.s.close("mail")
	}
	g.s.close("mailbox")
}

func (g *gen) name() string {
	return firstNames[g.r.Intn(len(firstNames))] + " " + lastNames[g.r.Intn(len(lastNames))]
}

func (g *gen) date() string {
	return fmt.Sprintf("%02d/%02d/%d", 1+g.r.Intn(12), 1+g.r.Intn(28), 1998+g.r.Intn(6))
}

func (g *gen) item() {
	g.itemSeq++
	g.nItems++
	g.s.openAttr("item", "id", fmt.Sprintf("item%d", g.itemSeq))
	g.element("location", regions[g.r.Intn(len(regions))])
	g.element("quantity", fmt.Sprintf("%d", 1+g.r.Intn(5)))
	g.element("name", g.words(2+g.r.Intn(3)))
	g.element("payment", "creditcard")
	g.element("shipping", "worldwide")
	// incategory is optional (20% of items have none): leaf deletion on
	// ./incategory is productive.
	nc := 0
	if g.r.Float64() >= 0.20 {
		nc = 1 + g.r.Intn(3)
	}
	for i := 0; i < nc; i++ {
		g.s.openAttr("incategory", "category", fmt.Sprintf("category%d", 1+g.r.Intn(50)))
		g.s.close("incategory")
	}
	g.description()
	g.mailbox()
	g.s.close("item")
}

func (g *gen) person() {
	g.perSeq++
	g.nPeople++
	g.s.openAttr("person", "id", fmt.Sprintf("person%d", g.perSeq))
	g.element("name", g.name())
	g.element("emailaddress", fmt.Sprintf("mailto:%s%d@example.com", firstNames[g.r.Intn(len(firstNames))], g.perSeq))
	if g.r.Float64() < 0.5 {
		g.element("phone", fmt.Sprintf("+1 (%d) %d", 100+g.r.Intn(900), 1000000+g.r.Intn(9000000)))
	}
	if g.r.Float64() < 0.4 {
		g.s.open("address")
		g.element("street", fmt.Sprintf("%d %s st", 1+g.r.Intn(99), lastNames[g.r.Intn(len(lastNames))]))
		g.element("city", lastNames[g.r.Intn(len(lastNames))])
		g.element("country", "united states")
		g.s.close("address")
	}
	if g.r.Float64() < 0.6 {
		g.s.open("profile")
		g.element("interest", g.words(1+g.r.Intn(2)))
		g.element("education", "graduate school")
		g.s.close("profile")
	}
	g.s.close("person")
}

func (g *gen) openAuction() {
	g.aucSeq++
	g.s.openAttr("open_auction", "id", fmt.Sprintf("open_auction%d", g.aucSeq))
	g.element("initial", fmt.Sprintf("%d.%02d", 1+g.r.Intn(300), g.r.Intn(100)))
	nb := g.r.Intn(4)
	for i := 0; i < nb; i++ {
		g.s.open("bidder")
		g.element("date", g.date())
		g.element("increase", fmt.Sprintf("%d.%02d", 1+g.r.Intn(30), g.r.Intn(100)))
		g.s.close("bidder")
	}
	g.s.open("annotation")
	g.description()
	g.s.close("annotation")
	g.element("itemref", fmt.Sprintf("item%d", 1+g.r.Intn(max(g.itemSeq, 1))))
	g.s.close("open_auction")
}

func (g *gen) closedAuction() {
	g.aucSeq++
	g.s.openAttr("closed_auction", "id", fmt.Sprintf("closed_auction%d", g.aucSeq))
	g.element("price", fmt.Sprintf("%d.%02d", 1+g.r.Intn(500), g.r.Intn(100)))
	g.element("date", g.date())
	g.s.open("annotation")
	g.description()
	g.s.close("annotation")
	g.element("itemref", fmt.Sprintf("item%d", 1+g.r.Intn(max(g.itemSeq, 1))))
	g.s.close("closed_auction")
}

func (g *gen) category() {
	g.catSeq++
	g.nCats++
	g.s.openAttr("category", "id", fmt.Sprintf("category%d", g.catSeq))
	g.element("name", g.words(1+g.r.Intn(2)))
	g.description()
	g.s.close("category")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
