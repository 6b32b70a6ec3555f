package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"flexpath"
	"flexpath/bench/layers"
	"flexpath/internal/xmark"
)

// memberBytes is the size of one collection member: big enough that a member
// search is real work, small enough that two dozen build in under a second.
const memberBytes = 512 << 10

// serverCacheEntries is flexserve's default -cache: the in-process
// collections are configured the way the server configures its own.
const serverCacheEntries = 1024

func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		return min
	}
	return v
}

func buildMember(seed int64, i int, scale float64) (*flexpath.Document, error) {
	tree, err := xmark.Build(xmark.Config{
		TargetBytes: int64(scaled(memberBytes, scale, 16<<10)),
		Seed:        memberSeed(seed, i),
	})
	if err != nil {
		return nil, err
	}
	return flexpath.NewDocument(tree), nil
}

func memberName(i int) string { return fmt.Sprintf("member%02d", i) }

// collAlgo is the algorithm every collection search of the benchmark pins.
//
// The library's default, Auto, cannot be verified: its planner calibrates
// itself from observed run times, so which algorithm a member runs depends on
// timing, and the algorithms do not report bit-identical structural scores
// (DPO reports a level's score as computed; the plan-based ones subtract the
// encoded penalties and add the satisfied ones back, which leaves a last-bit
// difference). Within one document that difference never reorders anything,
// but a collection merge compares scores across members, so under Auto the
// same query over the same corpus returns different top-K lists from run to
// run. Pinning Hybrid — Auto's usual pick — makes every ranking repeatable.
const collAlgo = flexpath.Hybrid

func newServerLikeCollection() *flexpath.Collection {
	c := flexpath.NewCollection()
	c.SetCache(serverCacheEntries)
	c.SetDocumentCaches(serverCacheEntries)
	return c
}

// adhocShapes are the structural forms of coll_adhoc. Ten are light (two to
// four nodes: the relaxation chain is short); the last is heavy (five nodes:
// a chain several times longer, built once per member). A round issues every
// light shape adhocLightRepeats times and the heavy one once, each op with
// its own keywords. Deeper shapes are left out on purpose: a fresh eight-node
// query costs over a second here.
//
// One op in 21 is heavy so that the 95th percentile falls on the heavy
// shape's undisturbed cost. Every class is bimodal — the collector marks for
// more than half of the time, and an op that allocates beside it takes two
// to three times as long, with a wide spread — so the fast third of the heavy
// class are within 5 ms of each other and the rest are spread over 100 ms.
// With the heavy class 15% of the ops the percentile fell among the slow ones,
// where samples are sparse: over ten runs its quartiles lay 0.14 of the
// median apart, and 0.03 this way. A light shape whose slow mode reached
// past the heavy shape's fast one (person/profile/interest) was taken out
// for the same reason.
var adhocShapes = []string{
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

const adhocLightRepeats = 2

// adhocVerifyEvery is the share of rounds whose rankings are verified: one in
// five. Checking an op means evaluating its query again, and by the end of a
// run the plan templates of all but the last few hundred queries have been
// evicted, so checking every op would cost as much CPU as the measured phase
// itself, on one core.
const adhocVerifyEvery = 5

// adhocRound is the shape index of every op of one round, before shuffling.
func adhocRound() []int {
	heavy := len(adhocShapes) - 1
	var round []int
	for i := 0; i < adhocLightRepeats; i++ {
		for si := 0; si < heavy; si++ {
			round = append(round, si)
		}
	}
	return append(round, heavy)
}

// collAdhoc is fresh queries over a hot collection: 24 in-memory members
// configured as flexserve configures them, and every op a query string never
// seen before in the run, parsed inside the timed region. Each op therefore
// misses the result caches and every member's plan-template cache, so the
// time goes to parsing, relaxation-chain and template building, full-text
// evaluation, the planner, fan-out and merge; join execution is a small
// share. It is the mirror image of doc_paper.
type collAdhoc struct {
	cfg config
	sb  *sandbox

	coll   *flexpath.Collection
	fresh  *freshQueries
	rounds int
}

const adhocMembers = 24

func (w *collAdhoc) setup() error {
	w.coll = newServerLikeCollection()
	for i, n := 0, scaled(adhocMembers, w.cfg.scale, 3); i < n; i++ {
		d, err := buildMember(w.cfg.seed, i, w.cfg.scale)
		if err != nil {
			return err
		}
		if err := w.coll.Add(memberName(i), d); err != nil {
			return err
		}
	}
	w.fresh = newFreshQueries(w.cfg.seed)
	w.rounds = 0
	// Three warm-up rounds, not one: they start filling the members' plan
	// caches, and they bring a set-up to the second or so that makes its
	// time measurable.
	var warm recorder
	for i := 0; i < 3; i++ {
		w.runRound(&warm, nil)
	}
	if n := countFailed(warm.searches); n > 0 {
		return fmt.Errorf("%d of %d warm-up searches failed", n, len(warm.searches))
	}
	return nil
}

func (w *collAdhoc) runRound(rec *recorder, tr *layers.Trace) {
	order := adhocRound()
	stream(w.cfg.seed, fmt.Sprintf("coll_adhoc/round/%d", w.rounds)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	verified := w.rounds%adhocVerifyEvery == 0
	w.rounds++
	for _, si := range order {
		src := w.fresh.next(adhocShapes[si])
		start := time.Now()
		var as []flexpath.CollectionAnswer
		q, err := flexpath.ParseQuery(src)
		if err == nil {
			as, err = w.coll.Search(q, flexpath.SearchOptions{K: 10, Algorithm: collAlgo})
		}
		end := time.Now()
		rec.search(si, end.Sub(start), digestAnswers(as), err)
		if verified {
			rec.searches[len(rec.searches)-1].query = src
		}
		if tr != nil {
			tr.Add(len(rec.searches)-1, layers.LayerOp, -1, start, end)
		}
	}
}

func (w *collAdhoc) measure(d time.Duration, rec *recorder, tr *layers.Trace) {
	measureRounds(d, rec, func() { w.runRound(rec, tr) })
}

func (w *collAdhoc) pid() int { return os.Getpid() }

// verify re-evaluates the queries of every fifth round sequentially with the
// caches bypassed and compares rankings.
func (w *collAdhoc) verify(rec *recorder) error {
	for i := range rec.searches {
		s := &rec.searches[i]
		if s.failed || s.query == "" {
			continue
		}
		q, err := flexpath.ParseQuery(s.query)
		if err != nil {
			return err
		}
		as, err := w.coll.Search(q, flexpath.SearchOptions{K: 10, Algorithm: collAlgo, Workers: 1, NoCache: true})
		if err != nil {
			return err
		}
		if digestAnswers(as) != s.digest {
			s.failed = true
		}
	}
	return nil
}

func (w *collAdhoc) ladder() ([]layers.NamedDoc, []layers.Op, error) {
	var docs []layers.NamedDoc
	for _, name := range w.coll.Names() {
		d, _ := w.coll.Document(name)
		docs = append(docs, layers.NamedDoc{Name: name, Doc: d})
	}
	// The ladder's queries are fresh too, drawn from their own stream so
	// replaying them does not shift the measured sequence.
	fq := &freshQueries{r: stream(w.cfg.seed, "coll_adhoc/ladder"), seen: map[string]bool{}}
	var ops []layers.Op
	for _, sh := range adhocShapes {
		ops = append(ops, layers.Op{Query: fq.next(sh), K: 10, Algo: collAlgo})
	}
	return docs, ops, nil
}

func (w *collAdhoc) counters() (layerCounters, error) { return collectionCounters(w.coll), nil }

func (w *collAdhoc) close() { w.coll = nil }

// collCold is a corpus larger than the residency cap: 32 members written as
// FXP3 snapshots and registered cold, at most 8 decoded at once, seven
// repeating queries. Every search visits every member, so the LRU cycles and
// each search faults all 32 in (the fault count repeats exactly). Time goes
// to snapshot decode, residency bookkeeping and — because a refaulted member
// comes back with an empty plan cache — template rebuilds.
//
// The result caches are bypassed: with seven repeating queries they would
// answer everything after the first round and nothing would ever fault.
type collCold struct {
	cfg config
	sb  *sandbox

	dir     string
	paths   []string
	coll    *flexpath.Collection
	queries []string
	parsed  []*flexpath.Query
	rounds  int
	// Template rebuilds, sampled after each traced search; see runRound.
	residentSamples, residentMisses float64
}

const (
	coldMembers   = 32
	coldResidency = 8
)

// coldQueries is six light queries and a heavy one (XQ2, six nodes): seven
// classes put the median inside the fourth and the 95th percentile inside
// the heavy one. XQ3 is left out: with a template rebuild per refault it
// costs seconds per search.
func coldQueries(seed int64) []string {
	r := stream(seed, "coll_cold/keywords")
	return []string{
		xq1,
		fmt.Sprintf(`//item[./description[.contains(%s)]]`, ftExpr(r)),
		fmt.Sprintf(`//mail[./text[.contains(%s)]]`, ftExpr(r)),
		fmt.Sprintf(`//listitem[./text[.contains(%s)]]`, ftExpr(r)),
		fmt.Sprintf(`//category[./name and ./description[.contains(%s)]]`, ftExpr(r)),
		`//item[./name and ./incategory]`,
		xq2,
	}
}

func (w *collCold) setup() error {
	dir, err := w.sb.tempDir("flexmark-cold-")
	if err != nil {
		return err
	}
	w.dir, w.paths = dir, nil
	w.coll = newServerLikeCollection()
	for i, n := 0, scaled(coldMembers, w.cfg.scale, 4); i < n; i++ {
		d, err := buildMember(w.cfg.seed, i, w.cfg.scale)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, memberName(i)+".fxp3")
		if err := d.SaveFXP3SnapshotFile(path); err != nil {
			return err
		}
		if err := w.coll.AddSnapshotFile(memberName(i), path); err != nil {
			return err
		}
		w.paths = append(w.paths, path)
	}
	w.coll.SetResidency(scaled(coldResidency, w.cfg.scale, 2))
	w.queries, w.parsed, w.rounds = coldQueries(w.cfg.seed), nil, 0
	for _, src := range w.queries {
		q, err := flexpath.ParseQuery(src)
		if err != nil {
			return err
		}
		w.parsed = append(w.parsed, q)
	}
	var warm recorder
	w.runRound(&warm, nil)
	if n := countFailed(warm.searches); n > 0 {
		return fmt.Errorf("%d of %d warm-up searches failed", n, len(warm.searches))
	}
	return nil
}

func (w *collCold) runRound(rec *recorder, tr *layers.Trace) {
	order := stream(w.cfg.seed, fmt.Sprintf("coll_cold/round/%d", w.rounds)).Perm(len(w.parsed))
	w.rounds++
	for _, qi := range order {
		start := time.Now()
		as, err := w.coll.Search(w.parsed[qi], flexpath.SearchOptions{K: 10, Algorithm: collAlgo, NoCache: true})
		end := time.Now()
		rec.search(qi, end.Sub(start), digestAnswers(as), err)
		if tr != nil {
			tr.Add(len(rec.searches)-1, layers.LayerOp, -1, start, end)
			// Counters of evicted members are gone, so template rebuilds
			// are sampled as plan-cache misses per currently decoded
			// member: how many templates a member has had to build since
			// it was last faulted in.
			if ps, ok := w.coll.PlanCacheStats(); ok {
				if res := w.coll.ResidencyStats().Resident; res > 0 {
					w.residentSamples++
					w.residentMisses += float64(ps.Misses) / float64(res)
				}
			}
		}
	}
}

func (w *collCold) measure(d time.Duration, rec *recorder, tr *layers.Trace) {
	measureRounds(d, rec, func() { w.runRound(rec, tr) })
}

func (w *collCold) pid() int { return os.Getpid() }

// inMemory loads every snapshot into a plain collection with no residency
// cap: the all-in-memory copy of the corpus that rankings are checked
// against, and that the ladder replays over.
func (w *collCold) inMemory() (*flexpath.Collection, error) {
	c := flexpath.NewCollection()
	for i, p := range w.paths {
		d, err := flexpath.LoadFXP3SnapshotFile(p)
		if err != nil {
			return nil, err
		}
		if err := c.Add(memberName(i), d); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (w *collCold) verify(rec *recorder) error {
	ref, err := w.inMemory()
	if err != nil {
		return err
	}
	defer ref.Close()
	want := make([]uint64, len(w.parsed))
	for i, q := range w.parsed {
		as, err := ref.Search(q, flexpath.SearchOptions{K: 10, Algorithm: collAlgo, Workers: 1, NoCache: true})
		if err != nil {
			return err
		}
		want[i] = digestAnswers(as)
	}
	for i := range rec.searches {
		if s := &rec.searches[i]; !s.failed && s.digest != want[s.class] {
			s.failed = true
		}
	}
	return nil
}

func (w *collCold) ladder() ([]layers.NamedDoc, []layers.Op, error) {
	c, err := w.inMemory()
	if err != nil {
		return nil, nil, err
	}
	var docs []layers.NamedDoc
	for _, name := range c.Names() {
		d, _ := c.Document(name)
		docs = append(docs, layers.NamedDoc{Name: name, Doc: d})
	}
	var ops []layers.Op
	for _, src := range w.queries {
		ops = append(ops, layers.Op{Query: src, K: 10, Algo: collAlgo})
	}
	return docs, ops, nil
}

func (w *collCold) counters() (layerCounters, error) {
	lc := collectionCounters(w.coll)
	if w.residentSamples > 0 {
		lc.rebuildsPerFault = w.residentMisses / w.residentSamples
	}
	return lc, nil
}

func (w *collCold) close() {
	if w.coll != nil {
		_ = w.coll.Close() // unmaps the snapshots; nothing to report on failure
		w.coll = nil
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir) // the sandbox removes it again at exit if this fails
		w.dir = ""
	}
}
