// Command flexserve serves flexible top-K search over one or more XML
// documents as a JSON HTTP API, with Prometheus-style observability,
// admission control and graceful shutdown.
//
// Usage:
//
//	flexserve -addr :8080 data1.xml data2.xml
//	flexserve -addr :8080 -dir corpus/
//	flexserve -cache 4096 -timeout 10s -slowlog 256 -slowms 100 data.xml
//	flexserve -maxinflight 64 -drain 15s data.xml   # shed overload, drain on SIGTERM
//	flexserve -admin data.xml                        # expose /admin/ mutation endpoints
//	flexserve -pprof data.xml                        # also expose /debug/pprof/
//	flexserve -shard -addr :9001                     # empty shard behind flexrouter
//	flexserve -wal /var/lib/flexpath data.xml        # durable corpus: WAL + checkpoints
//	flexserve -dir corpus/ -resident-docs 8          # mmap-backed FXP3 corpus, bounded residency
//
// Endpoints:
//
//	GET /search?q=QUERY&k=10&offset=0&algo=hybrid&scheme=structure-first&why=1
//	GET /relaxations?q=QUERY
//	GET /plan?q=QUERY&k=10
//	GET /stats
//	GET /metrics       Prometheus text format: query counters by
//	                   algorithm/scheme/status, latency and per-stage
//	                   histograms, cache counters, in-flight/shed/panic
//	                   server counters
//	GET /slowlog?n=32  slowest recent queries with per-stage timings
//	GET /healthz
//
// With -admin, the corpus can be mutated without a restart:
//
//	POST /admin/add?name=NAME       (XML document in the body)
//	POST /admin/remove?name=NAME
//	POST /admin/replace?name=NAME   (XML document in the body)
//	POST /admin/bulk                (NDJSON mutation batch in the body)
//
// With -wal DIR, every mutation is appended to a write-ahead log in DIR
// and fsync'd before the response is sent, periodic checkpoints write an
// FXP3 file for each document changed since the last one plus a manifest
// so replay stays bounded, and on startup the acknowledged corpus is
// recovered from DIR (kill -9 safe): checkpointed documents come back
// cold, mapped from their files, so -wal composes with -resident-docs.
// Bulk batches carry one JSON object per line —
//
//	{"op":"upsert","name":"doc.xml","doc":"<a>...</a>"}
//	{"op":"remove","name":"doc.xml"}
//
// with ops add, replace, upsert and remove (upsert and remove are
// retry-safe). At most -maxbulk batches execute concurrently; excess
// batches are rejected with 429 + Retry-After.
//
// Beyond -maxinflight concurrently executing queries, requests are shed
// with 503 + Retry-After instead of queued. On SIGINT/SIGTERM the server
// stops accepting connections, drains in-flight requests for up to
// -drain, and exits.
//
// Documents may be XML files or binary snapshots (detected by magic).
// FXP3 snapshots (.fxp3, written by flexpath -save-fxp3) are mmap'd and
// served cold: a document is decoded only when a search needs it, and
// -resident-docs bounds how many decoded documents stay hot — evicted
// documents fall back to their file-backed mapping, so a corpus much
// larger than RAM serves from whatever working set fits.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"flexpath"
	"flexpath/internal/serveutil"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "load every .xml file in this directory")
	cache := flag.Int("cache", 1024, "query-result cache capacity in entries (0 disables)")
	planCache := flag.Int("plancache", flexpath.DefaultPlanCacheCapacity, "per-document plan-template cache capacity in entries (0 disables)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request search timeout (0 disables)")
	slowCap := flag.Int("slowlog", 128, "slow-query log capacity in entries")
	slowMS := flag.Int("slowms", 0, "only log queries at least this many milliseconds long (0 logs all)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	maxInFlight := flag.Int("maxinflight", 0, "max concurrently executing query requests; excess is shed with 503 (0 = unlimited)")
	drain := flag.Duration("drain", 10*time.Second, "how long to drain in-flight requests on SIGINT/SIGTERM")
	admin := flag.Bool("admin", false, "expose corpus mutation endpoints under /admin/")
	shard := flag.Bool("shard", false, "run as a shard behind flexrouter: allow starting with an empty corpus and expose the /admin/ mutation endpoints (the router places documents here)")
	walDir := flag.String("wal", "", "write-ahead log directory: mutations are logged and fsync'd before they are acknowledged, checkpoints bound replay time, and startup recovers the acknowledged corpus from this directory (implies -admin)")
	walSync := flag.Duration("walsync", 2*time.Millisecond, "WAL group-commit window: how long an acknowledgment may wait so concurrent mutations share one fsync (0 fsyncs every mutation)")
	ckptEvery := flag.Int("checkpoint-every", 1024, "mutations between automatic WAL checkpoints (negative disables)")
	maxBulk := flag.Int("maxbulk", 4, "max concurrently executing /admin/bulk requests; excess is rejected with 429 (0 = unlimited)")
	residentDocs := flag.Int("resident-docs", 0, "max FXP3 snapshot-backed documents decoded at once; least-recently-searched beyond the cap are evicted back to their mmap (0 = unlimited)")
	flag.Parse()

	// With a WAL, recovery runs before command-line corpus files are
	// seeded: acknowledged mutations (including removals of seeded
	// documents) always win over the seed files.
	var dur *flexpath.DurableCollection
	coll := flexpath.NewCollection()
	if *walDir != "" {
		if *ckptEvery == 0 {
			// Flag semantics differ from the library's: an explicit 0 here
			// reads as "never", not "default".
			*ckptEvery = -1
		}
		d, err := flexpath.OpenDurableCollection(*walDir, flexpath.DurableOptions{
			SyncWindow:      *walSync,
			CheckpointEvery: *ckptEvery,
		})
		if err != nil {
			log.Fatal(err)
		}
		dur = d
		coll = d.Collection()
		s := d.Stats()
		log.Printf("flexserve: wal recovery: %d documents (checkpoint lsn %d, %d records replayed, %d torn bytes truncated)",
			coll.Len(), s.CheckpointLSN, s.ReplayedRecords, s.TornBytesTruncated)
	}
	if *dir != "" {
		if dur != nil {
			paths, err := filepath.Glob(filepath.Join(*dir, "*.xml"))
			if err != nil {
				log.Fatal(err)
			}
			sort.Strings(paths)
			for _, path := range paths {
				seedFile(dur, path)
			}
		} else {
			// One pass over the directory: .xml files load eagerly (as
			// LoadCollectionDir would), .fxp3 snapshots join cold —
			// mapped and listed, decoded only when a search needs them.
			entries, err := os.ReadDir(*dir)
			if err != nil {
				log.Fatal(err)
			}
			loaded := 0
			for _, e := range entries {
				if e.IsDir() {
					continue
				}
				path := filepath.Join(*dir, e.Name())
				switch ext := filepath.Ext(e.Name()); {
				case strings.EqualFold(ext, ".xml"):
					if err := coll.AddFile(path); err != nil {
						log.Fatal(err)
					}
					loaded++
				case strings.EqualFold(ext, ".fxp3"):
					if err := coll.AddSnapshotFile(path, path); err != nil {
						log.Fatal(err)
					}
					loaded++
				}
			}
			if loaded == 0 {
				log.Fatalf("flexserve: no .xml or .fxp3 files in %s", *dir)
			}
		}
	}
	for _, path := range flag.Args() {
		if dur != nil {
			seedFile(dur, path)
			continue
		}
		if strings.EqualFold(filepath.Ext(path), ".fxp3") {
			if err := coll.AddSnapshotFile(path, path); err != nil {
				log.Fatal(err)
			}
			continue
		}
		doc, err := flexpath.LoadAuto(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := coll.Add(path, doc); err != nil {
			log.Fatal(err)
		}
	}
	coll.SetResidency(*residentDocs)
	if coll.Len() == 0 && !*shard && dur == nil {
		fmt.Fprintln(os.Stderr, "flexserve: no documents given (use -shard to start empty behind flexrouter, or -wal to serve a durable corpus)")
		flag.Usage()
		os.Exit(2)
	}
	if *cache > 0 {
		// The collection cache serves repeated identical requests; the
		// per-document caches additionally let distinct collection
		// requests share per-document work after membership changes.
		coll.SetCache(*cache)
		coll.SetDocumentCaches(*cache)
	}
	// Always applied (0 disables): plan templates serve every request with
	// a repeated query shape, including ones the result caches miss
	// (different k, offset or snippet over the same pattern).
	coll.SetPlanCaches(*planCache)
	h, _ := newHandlerConfig(coll, handlerConfig{
		timeout:       *timeout,
		slowCap:       *slowCap,
		slowThreshold: time.Duration(*slowMS) * time.Millisecond,
		pprof:         *pprofOn,
		maxInFlight:   *maxInFlight,
		admin:         *admin || *shard || dur != nil,
		durable:       dur,
		maxBulk:       *maxBulk,
	})
	log.Printf("serving %d documents (%d elements) on %s (cache=%d, plancache=%d, timeout=%v, slowlog=%d@%dms, pprof=%v, maxinflight=%d, admin=%v, shard=%v, wal=%q, resident-docs=%d)",
		coll.Len(), coll.Nodes(), *addr, *cache, *planCache, *timeout, *slowCap, *slowMS, *pprofOn, *maxInFlight, *admin || *shard || dur != nil, *shard, *walDir, *residentDocs)

	srv := &http.Server{
		Handler:           h,
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      60 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	err = serveutil.Serve("flexserve", srv, ln, sig, *drain)
	if dur != nil {
		// After drain: no handler is mid-mutation, so Close only waits for
		// a background checkpoint before sealing the log.
		if cerr := dur.Close(); cerr != nil {
			log.Printf("flexserve: wal close: %v", cerr)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

// seedFile durably ingests one command-line corpus file (XML or binary
// snapshot) unless a document of that name already exists — recovered
// state wins over seed files on restart.
func seedFile(dur *flexpath.DurableCollection, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := dur.Seed(path, data); err != nil {
		log.Fatalf("flexserve: seeding %s: %v", path, err)
	}
}
