package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"flexpath"
	"flexpath/bench/layers"
)

// perLayerUnits names every per-layer metric a traced run reports, with its
// unit. BENCHMARK.json lists the same names; a test holds the two together.
var perLayerUnits = map[string]string{
	"tpq.parse_us":                           "us",
	"core.chain_build_ms":                    "ms",
	"core.plan_build_us":                     "us",
	"planner.choose_us":                      "us",
	"planner.choice_dpo_share":               "share",
	"planner.choice_sso_share":               "share",
	"planner.choice_hybrid_share":            "share",
	"ir.eval_us":                             "us",
	"exec.run_ms":                            "ms",
	"exec.semijoin_ns_per_node":              "ns",
	"exec.tuples_per_answer":                 "count",
	"exec.pruned_share":                      "share",
	"topk.dpo_ms":                            "ms",
	"topk.sso_ms":                            "ms",
	"topk.hybrid_ms":                         "ms",
	"topk.relaxations_per_search":            "count",
	"topk.restarts_per_search":               "count",
	"document.overhead_ms":                   "ms",
	"document.allocs_per_search":             "count",
	"document.kb_per_search":                 "KB",
	"collection.merge_overhead_ms":           "ms",
	"collection.fanout_speedup":              "ratio",
	"plancache.hit_ratio":                    "ratio",
	"qcache.hit_ratio":                       "ratio",
	"qcache.purges_per_mutation":             "ratio",
	"fxp3.open_us":                           "us",
	"fxp3.fault_in_ms":                       "ms",
	"fxp3.bytes_per_source_byte":             "ratio",
	"residency.faults_per_search":            "count",
	"residency.evictions_per_search":         "count",
	"residency.template_rebuilds_per_search": "count",
	"xmltree.parse_mb_per_s":                 "MB/s",
	"ir.index_mb_per_s":                      "MB/s",
	"stats.collect_ms":                       "ms",
	"wal.append_us":                          "us",
	"wal.fsync_wait_ms":                      "ms",
	"wal.records_per_fsync":                  "count",
	"wal.bytes_per_user_byte":                "ratio",
	"durable.checkpoint_ms":                  "ms",
	"durable.checkpoints":                    "count",
	"durable.recovery_s":                     "s",
	"flexserve.http_overhead_ms":             "ms",
	"flexserve.query_hit_p50_ms":             "ms",
	"flexserve.query_miss_p50_ms":            "ms",
	"flexserve.query_p99_ms":                 "ms",
	"flexserve.mutate_p50_ms":                "ms",
	"flexserve.mutate_p95_ms":                "ms",
	"flexserve.shed_total":                   "count",
	"obs.accounted_share":                    "share",
	"search.p50_ms":                          "ms",
	"harness.trace_overhead_share":           "share",
}

// walSyncWindow is flexserve's default -walsync.
const walSyncWindow = 2 * time.Millisecond

// A traced run splits its --seconds between these phases; the fixed-size
// probes (load, storage, WAL) take about two seconds on top.
const (
	traceSliceShare  = 0.25 // the workload's own loop, once traced and (in two halves) once untraced
	ladderShare      = 0.40
	probeMembers     = 3  // documents the load and storage probes use
	walProbeRecords  = 24 // appends the WAL probe times
	hitProbeRepeats  = 5  // cache-hit repetitions per pool query
	probeArticleSize = 64 << 10
)

// runTraced is the separate run that yields the per-layer numbers. It runs
// the workload's own loop twice (untraced, then with a span around each op:
// the difference is the tracing overhead), replays a slice of the op mix as a
// ladder over every layer that has a public entry point, and probes the
// storage, load, log and serving layers on the workload's corpus. End-to-end
// metrics never come from this run.
func runTraced(cfg config, sb *sandbox, w workload, rec *record) (result, error) {
	v := map[string]float64{}
	tr := layers.NewTrace()
	slice := time.Duration(cfg.seconds * traceSliceShare * float64(time.Second))

	// Untraced, traced, untraced: a system still warming up (or slowing
	// down) drifts through all three, and the halves on either side cancel
	// the drift out of the comparison.
	var plain, traced recorder
	t0 := time.Now()
	w.measure(slice/2, &plain, nil)
	plainWall := time.Since(t0)
	before, err := w.counters()
	if err != nil {
		return result{}, err
	}
	sm, isServe := w.(*serveMixed)
	var tracedRate float64
	t0 = time.Now()
	if isServe {
		// For serve_mixed the traced slice is the serving probe itself.
		if tracedRate, err = serveLayers(sm, slice, tr, &traced, v); err != nil {
			return result{}, err
		}
	} else {
		w.measure(slice, &traced, tr)
	}
	tracedWall := time.Since(t0)
	after, err := w.counters()
	if err != nil {
		return result{}, err
	}
	t0 = time.Now()
	w.measure(slice/2, &plain, nil)
	plainWall += time.Since(t0)
	if cfg.check || isServe {
		// For serve_mixed this is also where the server is crashed and
		// its recovery timed, after its counters were read.
		if err := w.verify(&traced); err != nil {
			return result{}, err
		}
	}
	if isServe {
		v["durable.recovery_s"] = sm.recoveryS
	}
	rate := func(r *recorder, wall time.Duration) float64 {
		return float64(len(r.searches)-countFailed(r.searches)) / wall.Seconds()
	}
	if !isServe {
		// (serveLayers scrapes and probes around its measured part, so it
		// reports the rate of that part itself.)
		tracedRate = rate(&traced, tracedWall)
	}
	v["harness.trace_overhead_share"] = 1 - tracedRate/rate(&plain, plainWall)
	v["search.p50_ms"] = percentile(okMillis(plain.searches), 50)
	counterMetrics(v, before, after, len(traced.searches))

	docs, ops, err := w.ladder()
	if err != nil {
		return result{}, err
	}
	lad, err := layers.NewLadder(docs, stream(cfg.seed, "ladder/members"), tr)
	if err != nil {
		return result{}, err
	}
	fallbackFT := stream(cfg.seed, "ladder/fulltext")
	budget := time.Duration(cfg.seconds * ladderShare * float64(time.Second))
	opID := len(traced.searches)
	firstPass := tr.Spans
	for t0, pass := time.Now(), 0; pass == 0 || time.Since(t0) < budget; pass++ {
		lad.Counting = pass == 0
		for _, op := range ops {
			if err := lad.Replay(opID, op, ftExpr(fallbackFT)); err != nil {
				return result{}, fmt.Errorf("ladder: %s: %w", op.Query, err)
			}
			opID++
		}
		if pass == 0 {
			firstPass = tr.Spans[len(firstPass):]
		}
	}
	ladderMetrics(v, tr, lad)
	if _, ok := w.(*docPaper); ok {
		rec.LadderCheck = ladderCheck(firstPass, &plain)
	}
	allocMetrics(v, docs, ops)
	// The probes run on the workloads whose layers they measure; elsewhere
	// those layers do no work and their metrics read 0.
	switch w.(type) {
	case *collCold:
		err = storageProbe(v, sb, docs, ops[0])
	case *serveMixed:
		if err = purgeProbe(v, docs, ops); err == nil {
			err = loadProbe(v, docs)
		}
		if err == nil {
			err = walProbe(v, sb, cfg.seed)
		}
	}
	if err != nil {
		return result{}, err
	}

	if err := tr.WriteFile(filepath.Join(cfg.outDir, cfg.workload+".spans.json")); err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}}
	for name, unit := range perLayerUnits {
		res.Metrics[name] = metric{v[name], unit}
	}
	res.Attempted = len(traced.searches) + len(traced.mutations)
	res.Failed = countFailed(traced.searches) + countFailed(traced.mutations)
	res.Correct = res.Failed == 0
	rec.Searches, rec.Mutations, rec.MeasuredS, rec.Result = len(traced.searches), len(traced.mutations), tracedWall.Seconds(), res
	return res, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics turns the system's own counters into ratios. Hit ratios use
// the counters' totals, not deltas: a collection sums its members' plan-cache
// counters over the members decoded right now, so under residency a delta
// would compare different sets of members.
func counterMetrics(v map[string]float64, before, after layerCounters, searches int) {
	v["plancache.hit_ratio"] = ratio(float64(after.plan.Hits), float64(after.plan.Hits+after.plan.Misses))
	v["qcache.hit_ratio"] = ratio(float64(after.cache.Hits), float64(after.cache.Hits+after.cache.Misses))
	n := float64(searches)
	faults := ratio(float64(after.residency.Faults-before.residency.Faults), n)
	v["residency.faults_per_search"] = faults
	v["residency.evictions_per_search"] = ratio(float64(after.residency.Evictions-before.residency.Evictions), n)
	v["residency.template_rebuilds_per_search"] = faults * after.rebuildsPerFault
}

func lower(a flexpath.Algorithm) string { return strings.ToLower(a.String()) }

// ladderMetrics reduces the ladder's spans to one number per layer: the
// median span for a layer called once per op, the median self time for a
// layer whose span covers the layer below.
func ladderMetrics(v map[string]float64, tr *layers.Trace, lad *layers.Ladder) {
	ms := func(layer string) float64 { return median(tr.Durations(layer)) }
	v["tpq.parse_us"] = ms(layers.LayerParse) * 1e3
	v["ir.eval_us"] = ms(layers.LayerFullText) * 1e3
	v["core.chain_build_ms"] = ms(layers.LayerChain)
	v["core.plan_build_us"] = ms(layers.LayerPlan) * 1e3
	v["planner.choose_us"] = ms(layers.LayerPlanner) * 1e3
	v["exec.run_ms"] = ms(layers.LayerExec)
	for _, a := range []flexpath.Algorithm{flexpath.DPO, flexpath.SSO, flexpath.Hybrid} {
		v["topk."+lower(a)+"_ms"] = ms(layers.LayerTopK + lower(a))
	}
	v["document.overhead_ms"] = median(tr.SelfTimes(layers.LayerDocument))
	v["collection.merge_overhead_ms"] = median(tr.SelfTimes(layers.LayerColl))
	v["collection.fanout_speedup"] = ratio(sum(tr.Durations(layers.LayerColl)), sum(tr.Durations(layers.LayerCollFanout)))
	v["exec.semijoin_ns_per_node"] = ratio(sum(tr.Durations(layers.LayerSemiJoin))*1e6, float64(lad.SemiJoinNodes))
	v["exec.tuples_per_answer"] = ratio(float64(lad.Counts.TuplesGenerated), float64(lad.Counts.Answers))
	v["exec.pruned_share"] = ratio(float64(lad.Counts.TuplesPruned), float64(lad.Counts.TuplesGenerated))
	v["topk.relaxations_per_search"] = ratio(float64(lad.Relaxations), float64(lad.Searches))
	v["topk.restarts_per_search"] = ratio(float64(lad.Restarts), float64(lad.Searches))
	// Every workload pins its algorithms, so the planner's outcome is
	// observed where the ladder asks it: an uncalibrated planner per
	// sampled member, whose choice depends only on the statistics.
	total := 0
	for _, n := range lad.Choices {
		total += n
	}
	for _, a := range []flexpath.Algorithm{flexpath.DPO, flexpath.SSO, flexpath.Hybrid} {
		v["planner.choice_"+lower(a)+"_share"] = ratio(float64(lad.Choices[a]), float64(total))
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ladderCheck compares, on doc_paper, the ladder's Document.Search spans of
// one pass over the 27 combinations (which are the sum of the self times of
// the document and top-K layers) with the untraced median latency of the same
// combinations: the ladder is only worth reading if it adds up to the thing
// it decomposes.
func ladderCheck(pass []layers.Span, plain *recorder) string {
	byClass := map[int][]float64{}
	for _, s := range plain.searches {
		if !s.failed {
			byClass[s.class] = append(byClass[s.class], float64(s.d)/1e6)
		}
	}
	var ladder, untraced float64
	class := 0
	for _, s := range pass {
		if s.Layer == layers.LayerDocument {
			ladder += float64(s.EndNS-s.StartNS) / 1e6
			untraced += median(byClass[class])
			class++
		}
	}
	return fmt.Sprintf("ladder document spans %.2f ms vs untraced medians %.2f ms over %d combinations: ratio %.3f",
		ladder, untraced, class, ratio(ladder, untraced))
}

// allocMetrics counts heap allocations per warm Document.Search over one
// pass of the ops and the corpus. Nothing else runs in this process
// meanwhile, so the counts are near-exact.
func allocMetrics(v map[string]float64, docs []layers.NamedDoc, ops []layers.Op) {
	var before, after runtime.MemStats
	n := 0
	parsed := make([]*flexpath.Query, len(ops))
	for i, op := range ops {
		parsed[i] = flexpath.MustParseQuery(op.Query) // the ladder has parsed every one already
	}
	runtime.ReadMemStats(&before)
	for i, op := range ops {
		for _, d := range docs {
			_, _ = d.Doc.Search(parsed[i], flexpath.SearchOptions{K: op.K, Algorithm: op.Algo, NoCache: true}) // errors surfaced by the ladder
			n++
		}
	}
	runtime.ReadMemStats(&after)
	v["document.allocs_per_search"] = ratio(float64(after.Mallocs-before.Mallocs), float64(n))
	v["document.kb_per_search"] = ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(n))
}

// purgeProbe measures how much of the collection result cache one mutation
// throws away: fill the cache with the ops, replace one member, count what
// is left. 1 means every mutation empties the cache.
func purgeProbe(v map[string]float64, docs []layers.NamedDoc, ops []layers.Op) error {
	c := flexpath.NewCollection()
	c.SetCache(serverCacheEntries)
	for _, d := range docs {
		if err := c.Add(d.Name, d.Doc); err != nil {
			return err
		}
	}
	var dropped, held float64
	for i := 0; i < probeMembers && i < len(docs); i++ {
		for _, op := range ops {
			if _, err := c.Search(flexpath.MustParseQuery(op.Query), flexpath.SearchOptions{K: op.K, Algorithm: op.Algo}); err != nil {
				return err
			}
		}
		b, _ := c.CacheStats()
		if err := c.Replace(docs[i].Name, docs[i].Doc); err != nil {
			return err
		}
		a, _ := c.CacheStats()
		held += float64(b.Entries)
		dropped += float64(b.Entries - a.Entries)
	}
	v["qcache.purges_per_mutation"] = ratio(dropped, held)
	return nil
}

// storageProbe writes a few members as FXP3 snapshots and measures what the
// snapshot path costs: registering a cold member (metadata only), the first
// search of a cold member against the same search once it is decoded, and the
// snapshot's size against the XML it stands for.
func storageProbe(v map[string]float64, sb *sandbox, docs []layers.NamedDoc, op layers.Op) error {
	dir, err := sb.tempDir("flexmark-fxp3-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	q, err := flexpath.ParseQuery(op.Query)
	if err != nil {
		return err
	}
	var opens, faults []float64
	var xmlBytes, snapBytes float64
	for i := 0; i < probeMembers && i < len(docs); i++ {
		path := filepath.Join(dir, fmt.Sprintf("probe%d.fxp3", i))
		if err := docs[i].Doc.SaveFXP3SnapshotFile(path); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		xml, err := layers.XMLOf(docs[i].Doc)
		if err != nil {
			return err
		}
		xmlBytes += float64(len(xml))
		snapBytes += float64(fi.Size())

		c := flexpath.NewCollection()
		t0 := time.Now()
		if err := c.AddSnapshotFile("probe", path); err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(t0))/1e3)
		opts := flexpath.SearchOptions{K: op.K, Algorithm: op.Algo, NoCache: true, Workers: 1}
		t0 = time.Now()
		if _, err := c.Search(q, opts); err != nil {
			return err
		}
		cold := time.Since(t0)
		t0 = time.Now()
		if _, err := c.Search(q, opts); err != nil {
			return err
		}
		faults = append(faults, float64(cold-time.Since(t0))/1e6)
		if err := c.Close(); err != nil {
			return err
		}
	}
	v["fxp3.open_us"] = median(opens)
	v["fxp3.fault_in_ms"] = median(faults)
	v["fxp3.bytes_per_source_byte"] = ratio(snapBytes, xmlBytes)
	return nil
}

// loadProbe takes flexpath.Load apart on a few members: parse, index, stats.
func loadProbe(v map[string]float64, docs []layers.NamedDoc) error {
	var parse, index, stats []float64
	for i := 0; i < probeMembers && i < len(docs); i++ {
		xml, err := layers.XMLOf(docs[i].Doc)
		if err != nil {
			return err
		}
		s, err := layers.SplitLoad(xml)
		if err != nil {
			return err
		}
		mb := float64(len(xml)) / (1 << 20)
		parse = append(parse, mb/s.Parse.Seconds())
		index = append(index, mb/s.Index.Seconds())
		stats = append(stats, float64(s.Stats)/1e6)
	}
	v["xmltree.parse_mb_per_s"] = median(parse)
	v["ir.index_mb_per_s"] = median(index)
	v["stats.collect_ms"] = median(stats)
	return nil
}

// walProbe times the bare log under a mutation: buffering a record, and the
// wait for the fsync that makes it durable, with flexserve's group-commit
// window. Records are article-sized.
func walProbe(v map[string]float64, sb *sandbox, seed int64) error {
	dir, err := sb.tempDir("flexmark-log-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := layers.OpenLog(dir, walSyncWindow)
	if err != nil {
		return err
	}
	defer log.Close()
	r := stream(seed, "wal-probe")
	var appends, waits []float64
	var user float64
	for i := 0; i < walProbeRecords; i++ {
		name := fmt.Sprintf("record%02d", i)
		body := genArticle(r, name, probeArticleSize)
		t0 := time.Now()
		lsn, err := log.Append(name, body)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := log.WaitDurable(lsn); err != nil {
			return err
		}
		appends = append(appends, float64(t1.Sub(t0))/1e3)
		waits = append(waits, float64(time.Since(t1))/1e6)
		user += float64(len(body))
	}
	v["wal.append_us"] = median(appends)
	v["wal.fsync_wait_ms"] = median(waits)
	v["wal.bytes_per_user_byte"] = ratio(float64(log.DiskBytes()), user)
	return nil
}

// serveLayers runs a serving world's mixed phase for d between two scrapes
// of the server's own counters, then quiesces it, compares cache-hit latency
// over HTTP with the same hits in process. It fills in the flexserve.*,
// durable.* and obs.* metrics, all but the recovery time: the caller
// reads that after verify has crashed and restarted the server.
func serveLayers(w *serveMixed, d time.Duration, tr *layers.Trace, rec *recorder, v map[string]float64) (searchesPerS float64, err error) {
	m0, err := scrape(w.srv.addr)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	w.measure(d, rec, tr)
	wall := time.Since(t0)
	m1, err := scrape(w.srv.addr)
	if err != nil {
		return 0, err
	}
	delta := func(name string) float64 { return m1[name] - m0[name] }

	var hit, miss []float64
	for _, s := range rec.searches {
		if s.failed {
			continue
		}
		if s.class%2 == 1 {
			miss = append(miss, float64(s.d)/1e6)
		} else {
			hit = append(hit, float64(s.d)/1e6)
		}
	}
	all := okMillis(rec.searches)
	searchesPerS = float64(len(all)) / wall.Seconds()
	v["flexserve.query_hit_p50_ms"] = percentile(hit, 50)
	v["flexserve.query_miss_p50_ms"] = percentile(miss, 50)
	v["flexserve.query_p99_ms"] = percentile(all, 99)
	v["flexserve.mutate_p50_ms"] = percentile(okMillis(rec.mutations), 50)
	v["flexserve.mutate_p95_ms"] = percentile(okMillis(rec.mutations), 95)
	v["flexserve.shed_total"] = delta("flexpath_server_shed_total")

	v["wal.records_per_fsync"] = ratio(delta("flexpath_wal_fsynced_records_total"), delta("flexpath_wal_fsyncs_total"))
	v["durable.checkpoints"] = delta("flexpath_wal_checkpoints_total")
	v["durable.checkpoint_ms"] = m1["flexpath_wal_last_checkpoint_duration_seconds"] * 1e3
	stages := sumPrefix(m1, "flexpath_stage_duration_seconds_sum") - sumPrefix(m0, "flexpath_stage_duration_seconds_sum")
	handler := sumPrefix(m1, "flexpath_query_duration_seconds_sum") - sumPrefix(m0, "flexpath_query_duration_seconds_sum")
	v["obs.accounted_share"] = ratio(stages, handler)

	// Cache hits, over HTTP and in process, on the quiesced corpus.
	ref, err := w.reference()
	if err != nil {
		return 0, err
	}
	ref.SetCache(serverCacheEntries)
	var httpHits, localHits []float64
	for _, pq := range w.pool {
		q, err := flexpath.ParseQuery(pq.src)
		if err != nil {
			return 0, err
		}
		for i := 0; i <= hitProbeRepeats; i++ {
			t0 := time.Now()
			if _, err := w.search(pq); err != nil {
				return 0, err
			}
			h := time.Since(t0)
			t0 = time.Now()
			if _, err := ref.Search(q, flexpath.SearchOptions{K: pq.k, Algorithm: collAlgo}); err != nil {
				return 0, err
			}
			if i > 0 { // the first of each fills the cache
				httpHits = append(httpHits, float64(h)/1e6)
				localHits = append(localHits, float64(time.Since(t0))/1e6)
			}
		}
	}
	v["flexserve.http_overhead_ms"] = median(httpHits) - median(localHits)
	return searchesPerS, nil
}
