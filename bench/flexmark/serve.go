package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"flexpath"
	"flexpath/bench/layers"
)

// serveParams sizes a serve_mixed world; mixedParams scales it (the package's
// tests run it small).
type serveParams struct {
	docs               int // articles preloaded
	minBytes, maxBytes int // article size range
	bodies             int // pool of replacement bodies the mutations cycle through
	searchesPerWrite   int // one mutation is due after this many searches
	checkpointEvery    int // flexserve -checkpoint-every
}

func mixedParams(scale float64) serveParams {
	return serveParams{
		docs:     scaled(40, scale, 4),
		minBytes: scaled(32<<10, scale, 2<<10),
		maxBytes: scaled(128<<10, scale, 4<<10),
		bodies:   scaled(48, scale, 6),
		// Eight rounds of the ten-query pool: about 50 ms at the defining
		// commit, so some 350 mutations in 20 s.
		searchesPerWrite: 8 * poolSize,
		// A run makes a few hundred mutations; 100 gives several
		// checkpoint cycles inside the measured phase.
		checkpointEvery: scaled(100, scale, 8),
	}
}

// serveMixed is reads beside durable writes over HTTP. A flexserve child
// (-wal, -admin, result caches on) holds 40 articles of 32-128 KB. One client
// issues /search from a pool of ten queries over 8 shapes back to back, and
// after every 80 searches one mutation, waiting for its acknowledgement
// before the next search (70% upsert of an existing name with a new body, 30%
// remove followed by re-add). Each mutation purges the collection result
// cache, so the next search of each pool query takes the miss path. This is
// the only workload that writes, and the only one where the process under
// test is not the harness.
//
// Writes are tied to the search count, not to the clock, on purpose. On a
// clock, the number of cache hits that fit between two purges depends on how
// fast a hit is, so a slower host (or a slower hit path) raises the share of
// misses, which slows the loop further: measured throughput swung by 2x
// between runs of identical code. Counting searches fixes the mix — ten
// misses in every eighty searches, 12.5%, by construction — so the median
// stays deep in the hit class, the 95th percentile in the middle of the miss
// class, and throughput moves in proportion to speed.
//
// One op is in flight at a time, also on purpose. With the mutations on a
// second goroutine the client's two loops, the server's handler and its
// re-indexing, checkpointing and collector wanted more than the two cores
// there are, and which of them waited was the scheduler's choice: over ten
// runs of identical code the quartiles of searches_per_s and cpu_ms_per_op
// lay 15-28% of the median apart, against 4-5% this way. What still overlaps
// the searches is what the server does after an acknowledgement: checkpoints
// and garbage collection.
type serveMixed struct {
	cfg config
	sb  *sandbox
	p   serveParams

	srv    *server
	walDir string
	// recoveryS is how long the last restart on the used WAL directory
	// took from exec to healthy.
	recoveryS float64

	pool    []poolQuery
	bodies  [][]byte
	current map[string][]byte // acknowledged membership: name -> body
	names   []string          // all names ever used, for seeded choice
	pending string            // name removed and due to be re-added next
	mutRand *rand.Rand
	bodySeq int
	rounds  int

	hc *http.Client // one connection

	// epoch counts acknowledged mutations; a query is classed as an
	// expected miss when its shape has not been asked since the last one.
	epoch     int64
	lastEpoch []int64
}

// poolSize is how many distinct queries the client cycles through: the
// eight shapes, the first two a second time with other keywords.
const poolSize = 10

type poolQuery struct {
	src string
	k   int
	url string
}

func oneConnClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

func (w *serveMixed) serverFlags() []string {
	return []string{
		"-wal", w.walDir, "-admin", "-cache", strconv.Itoa(serverCacheEntries),
		"-checkpoint-every", strconv.Itoa(w.p.checkpointEvery),
	}
}

func (w *serveMixed) setup() error {
	if w.cfg.flexserve == "" {
		return errors.New("no flexserve binary (pass -flexserve, or run through bench/run.sh)")
	}
	dir, err := w.sb.tempDir("flexmark-serve-")
	if err != nil {
		return err
	}
	w.walDir = dir
	srv, _, err := w.sb.startServer(w.cfg.flexserve, w.serverFlags()...)
	if err != nil {
		return err
	}
	w.srv = srv
	w.hc = oneConnClient()

	gen := stream(w.cfg.seed, "serve_mixed/articles")
	// Sizes are the same evenly spaced ladder for every seed, handed out in
	// seeded order: the corpus total, and with it memory and checkpoint
	// cost, does not depend on the draw.
	sizes := func(n int) []int {
		out := make([]int, n)
		for i, j := range gen.Perm(n) {
			out[i] = w.p.minBytes + (w.p.maxBytes-w.p.minBytes)*j/(n-1)
		}
		return out
	}
	w.current, w.names = map[string][]byte{}, nil
	var batch bytes.Buffer
	enc := json.NewEncoder(&batch)
	for i, size := range sizes(w.p.docs) {
		name := fmt.Sprintf("article%02d", i)
		body := genArticle(gen, name, size)
		w.names = append(w.names, name)
		w.current[name] = body
		if err := enc.Encode(bulkLine{Op: "add", Name: name, Doc: string(body)}); err != nil {
			return err
		}
	}
	if applied, err := w.bulk(batch.Bytes()); err != nil || applied != w.p.docs {
		return fmt.Errorf("preload applied %d of %d documents: %v", applied, w.p.docs, err)
	}
	w.bodies = nil
	for i, size := range sizes(w.p.bodies) {
		w.bodies = append(w.bodies, genArticle(gen, fmt.Sprintf("body%02d", i), size))
	}

	kw := stream(w.cfg.seed, "serve_mixed/keywords")
	w.pool = nil
	for i := 0; i < poolSize; i++ {
		sh := articleShapes[i%len(articleShapes)]
		src := fmt.Sprintf(sh.q, ftExpr(kw))
		w.pool = append(w.pool, poolQuery{src: src, k: sh.k,
			url: fmt.Sprintf("http://%s/search?q=%s&k=%d&algo=hybrid", srv.addr, url.QueryEscape(src), sh.k)})
	}
	w.mutRand = stream(w.cfg.seed, "serve_mixed/mutations")
	w.pending, w.bodySeq, w.rounds = "", 0, 0
	w.lastEpoch = make([]int64, len(w.pool))
	w.epoch = 0

	// Warm-up, discarded: four turns of the mix, searchesPerWrite searches
	// and then a mutation.
	var warm recorder
	for i := 0; i < 4; i++ {
		for len(warm.searches) < (i+1)*w.p.searchesPerWrite {
			w.queryRound(&warm, nil)
		}
		w.mutate(&warm)
	}
	if n := countFailed(warm.searches) + countFailed(warm.mutations); n > 0 {
		return fmt.Errorf("%d warm-up ops failed", n)
	}
	return nil
}

type bulkLine struct {
	Op   string `json:"op"`
	Name string `json:"name"`
	Doc  string `json:"doc,omitempty"`
}

// bulk posts an NDJSON batch to /admin/bulk and returns how many lines the
// server applied (each is durable by the time it is counted).
func (w *serveMixed) bulk(body []byte) (applied int, err error) {
	resp, err := w.hc.Post("http://"+w.srv.addr+"/admin/bulk", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Applied int `json:"applied"`
		Failed  int `json:"failed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || out.Failed > 0 {
		return out.Applied, fmt.Errorf("bulk: status %d, %d lines failed", resp.StatusCode, out.Failed)
	}
	return out.Applied, nil
}

func (w *serveMixed) admin(path, name string, body []byte) error {
	resp, err := w.hc.Post("http://"+w.srv.addr+path+"?name="+url.QueryEscape(name), "application/xml", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", path, name, resp.StatusCode)
	}
	return nil
}

// mutate performs the next mutation of the seeded schedule and records its
// acknowledgement latency. The expected membership changes only on an ack.
func (w *serveMixed) mutate(rec *recorder) {
	var err error
	var start time.Time
	switch {
	case w.pending != "":
		name, body := w.pending, w.nextBody()
		start = time.Now()
		if err = w.admin("/admin/add", name, body); err == nil {
			w.current[name] = body
			w.pending = ""
		}
	case w.mutRand.Intn(10) < 7 || len(w.current) <= 2:
		name, body := w.pickPresent(), w.nextBody()
		line, _ := json.Marshal(bulkLine{Op: "upsert", Name: name, Doc: string(body)}) // strings always marshal
		start = time.Now()
		var applied int
		if applied, err = w.bulk(line); err == nil && applied != 1 {
			err = fmt.Errorf("upsert %s: applied %d", name, applied)
		}
		if err == nil {
			w.current[name] = body
		}
	default:
		name := w.pickPresent()
		start = time.Now()
		if err = w.admin("/admin/remove", name, nil); err == nil {
			delete(w.current, name)
			w.pending = name
		}
	}
	rec.mutation(time.Since(start), err)
	if err == nil {
		w.epoch++
	}
}

func (w *serveMixed) nextBody() []byte {
	b := w.bodies[w.bodySeq%len(w.bodies)]
	w.bodySeq++
	return b
}

func (w *serveMixed) pickPresent() string {
	for {
		if name := w.names[w.mutRand.Intn(len(w.names))]; w.current[name] != nil {
			return name
		}
	}
}

type searchReply struct {
	Answers []struct {
		Doc         string  `json:"doc"`
		Path        string  `json:"path"`
		ID          string  `json:"id"`
		Structural  float64 `json:"structural"`
		Keyword     float64 `json:"keyword"`
		Relaxations int     `json:"relaxations"`
	} `json:"answers"`
}

// search issues one pool query and returns the digest of its ranking in the
// same form digestAnswers gives an in-process one. Anything but a 200 with a
// well-formed body of at most k answers is a failure: a shed (503), a
// timeout and a bad reply all count against the number attempted.
func (w *serveMixed) search(pq poolQuery) (uint64, error) {
	resp, err := w.hc.Get(pq.url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		return 0, fmt.Errorf("/search: status %d", resp.StatusCode)
	}
	var out searchReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	if len(out.Answers) > pq.k {
		return 0, fmt.Errorf("/search: %d answers for k=%d", len(out.Answers), pq.k)
	}
	h := fnv.New64a()
	for i, a := range out.Answers {
		digestAnswer(h, i, a.Doc, flexpath.Answer{
			Path: a.Path, ID: a.ID, Structural: a.Structural, Keyword: a.Keyword, Relaxations: a.Relaxations,
		})
	}
	return h.Sum64(), nil
}

// queryRound issues every pool query once, in an order that depends only on
// the seed and the round number.
func (w *serveMixed) queryRound(rec *recorder, tr *layers.Trace) {
	order := stream(w.cfg.seed, fmt.Sprintf("serve_mixed/round/%d", w.rounds)).Perm(len(w.pool))
	w.rounds++
	for _, qi := range order {
		miss := w.lastEpoch[qi] != w.epoch || w.epoch == 0
		w.lastEpoch[qi] = w.epoch
		start := time.Now()
		dg, err := w.search(w.pool[qi])
		end := time.Now()
		class := qi * 2
		if miss {
			class++
		}
		rec.search(class, end.Sub(start), dg, err)
		if tr != nil {
			tr.Add(len(rec.searches)-1, layers.LayerOp, -1, start, end)
		}
	}
}

// measure issues queries in whole rounds for d, and one mutation after every
// searchesPerWrite searches.
func (w *serveMixed) measure(d time.Duration, rec *recorder, tr *layers.Trace) {
	next := len(rec.searches) + w.p.searchesPerWrite
	measureRounds(d, rec, func() {
		w.queryRound(rec, tr)
		if len(rec.searches) >= next {
			w.mutate(rec)
			next += w.p.searchesPerWrite
		}
	})
}

func (w *serveMixed) pid() int { return w.srv.pid() }

func (w *serveMixed) counters() (layerCounters, error) {
	s, err := fetchStats(w.srv.addr)
	var lc layerCounters
	if s.Cache != nil {
		lc.cache = *s.Cache
	}
	if s.PlanCache != nil {
		lc.plan = *s.PlanCache
	}
	return lc, err
}

// reference builds an in-process collection from the acknowledged
// membership. The merge breaks ties by document name, so insertion order
// does not matter.
func (w *serveMixed) reference() (*flexpath.Collection, error) {
	names := make([]string, 0, len(w.current))
	for name := range w.current {
		names = append(names, name)
	}
	sort.Strings(names)
	c := flexpath.NewCollection()
	for _, name := range names {
		d, err := flexpath.Load(bytes.NewReader(w.current[name]))
		if err != nil {
			return nil, err
		}
		if err := c.Add(name, d); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// compare checks the server's answer to every pool query against ref.
func (w *serveMixed) compare(ref *flexpath.Collection, when string) error {
	for _, pq := range w.pool {
		q, err := flexpath.ParseQuery(pq.src)
		if err != nil {
			return err
		}
		as, err := ref.Search(q, flexpath.SearchOptions{K: pq.k, Algorithm: collAlgo, Workers: 1, NoCache: true})
		if err != nil {
			return err
		}
		got, err := w.search(pq)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", when, pq.src, err)
		}
		if got != digestAnswers(as) {
			return fmt.Errorf("%s: %s: server ranking differs from a collection rebuilt from the acknowledged membership", when, pq.src)
		}
	}
	return nil
}

// restart kills the server with SIGKILL and starts it again on the same WAL
// directory.
func (w *serveMixed) restart() error {
	w.srv.kill()
	srv, took, err := w.sb.startServer(w.cfg.flexserve, w.serverFlags()...)
	if err != nil {
		return err
	}
	w.srv, w.recoveryS = srv, took.Seconds()
	for i := range w.pool {
		u, _ := url.Parse(w.pool[i].url) // built by setup from a literal format
		u.Host = srv.addr
		w.pool[i].url = u.String()
	}
	return nil
}

// verify checks the quiesced server against the acknowledged membership,
// then crashes it and checks again after recovery: acknowledged must mean
// readable. A wrong ranking fails every search of the run, since none of
// them can be trusted.
func (w *serveMixed) verify(rec *recorder) error {
	ref, err := w.reference()
	if err != nil {
		return err
	}
	err = w.compare(ref, "after the last ack")
	if err == nil {
		if err = w.restart(); err == nil {
			err = w.compare(ref, "after kill -9 and recovery")
		}
	}
	if err != nil {
		fmt.Fprintln(errOut, "flexmark: serve_mixed:", err)
		for i := range rec.searches {
			rec.searches[i].failed = true
		}
	}
	return nil
}

func (w *serveMixed) ladder() ([]layers.NamedDoc, []layers.Op, error) {
	ref, err := w.reference()
	if err != nil {
		return nil, nil, err
	}
	var docs []layers.NamedDoc
	for _, name := range ref.Names() {
		d, _ := ref.Document(name)
		docs = append(docs, layers.NamedDoc{Name: name, Doc: d})
	}
	var ops []layers.Op
	for _, pq := range w.pool {
		ops = append(ops, layers.Op{Query: pq.src, K: pq.k, Algo: collAlgo})
	}
	return docs, ops, nil
}

func (w *serveMixed) close() {
	if w.srv != nil {
		w.srv.kill()
		w.srv = nil
	}
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
}

// scrape reads a Prometheus text exposition into sample -> value, the
// sample being the line's name with its labels, e.g.
// `flexpath_stage_duration_seconds_sum{stage="join"}`.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sumPrefix adds up every sample whose name starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// serverStats is the part of flexserve's /stats the traced run reads.
type serverStats struct {
	Cache     *flexpath.CacheStats     `json:"cache"`
	PlanCache *flexpath.PlanCacheStats `json:"plan_cache"`
}

func fetchStats(addr string) (serverStats, error) {
	var s serverStats
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}
