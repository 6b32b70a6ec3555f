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
//	flexserve -admin -addr :9001                     # empty shard behind flexrouter
//	flexserve -wal /var/lib/flexpath data.xml        # durable corpus: WAL + checkpoints
//	flexserve -dir corpus/                           # mmap-backed FXP3 corpus, decoded on demand
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
// With -admin (or -wal), the corpus can be mutated without a restart,
// and the server may start with no documents (a shard behind flexrouter,
// which places documents on it):
//
//	POST /admin/add?name=NAME       (XML document in the body)
//	POST /admin/remove?name=NAME
//	POST /admin/replace?name=NAME   (XML document in the body)
//	POST /admin/bulk                (NDJSON mutation batch in the body)
//
// Each request or batch line parses its document and makes one call into
// the collection's own verb, which resolves it against the current
// membership under its own lock (and, with -wal, logs it): an add of a
// present name is 409, a replace or remove of an absent one 404, an
// unparsable document 400, whichever mode the server runs in.
//
// With -wal DIR, the collection is durable: every mutation is appended
// to a write-ahead log in DIR, as the document's FXP3 snapshot, and
// fsync'd before the response is sent; periodic checkpoints write an
// FXP3 file for each document changed since the last one plus a manifest
// so replay stays bounded, and on startup the acknowledged corpus is
// recovered from DIR (kill -9 safe): checkpointed documents come back
// cold, mapped from their files, and are decoded by their first search.
// Corpus files are added after recovery, in either mode, except those
// whose name is already a member, so a recovered document wins over its
// file; each one added with -wal is logged like a mutation.
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
// Documents may be XML files or binary snapshots: each file's magic
// decides which, never its extension (-dir only selects the files ending
// in .xml or .fxp3, in any case). FXP3 snapshots (written by flexpath
// -save-fxp3) are mmap'd and served cold: a document is decoded once,
// by the first search that needs it, and its columns stay file-backed
// mapped pages, which the kernel reclaims under memory pressure.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flexpath"
	"flexpath/internal/serveutil"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "load every .xml and .fxp3 file in this directory")
	cache := flag.Int("cache", 1024, "query-result cache capacity in entries (0 disables)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request search timeout (0 disables)")
	slowCap := flag.Int("slowlog", 128, "slow-query log capacity in entries")
	slowMS := flag.Int("slowms", 0, "only log queries at least this many milliseconds long (0 logs all)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	maxInFlight := flag.Int("maxinflight", 0, "max concurrently executing query requests; excess is shed with 503 (0 = unlimited)")
	drain := flag.Duration("drain", 10*time.Second, "how long to drain in-flight requests on SIGINT/SIGTERM")
	admin := flag.Bool("admin", false, "expose corpus mutation endpoints under /admin/ and allow starting with an empty corpus (a shard behind flexrouter)")
	walDir := flag.String("wal", "", "write-ahead log directory: mutations are logged and fsync'd before they are acknowledged, checkpoints bound replay time, and startup recovers the acknowledged corpus from this directory (implies -admin)")
	walSync := flag.Duration("walsync", 2*time.Millisecond, "WAL group-commit window: how long an acknowledgment may wait so concurrent mutations share one fsync (0 fsyncs every mutation)")
	ckptEvery := flag.Int("checkpoint-every", 1024, "mutations between automatic WAL checkpoints (negative disables)")
	maxBulk := flag.Int("maxbulk", 4, "max concurrently executing /admin/bulk requests; excess is rejected with 429 (0 = unlimited)")
	flag.Parse()

	// With a WAL, recovery runs before command-line corpus files are
	// added, so a recovered document wins over its file.
	coll := flexpath.NewCollection()
	if *walDir != "" {
		if *ckptEvery == 0 {
			// Flag semantics differ from the library's: an explicit 0 here
			// reads as "never", not "default".
			*ckptEvery = -1
		}
		var err error
		coll, err = flexpath.OpenDurableCollection(*walDir, flexpath.DurableOptions{
			SyncWindow:      *walSync,
			CheckpointEvery: *ckptEvery,
		})
		if err != nil {
			log.Fatal(err)
		}
		s, _ := coll.DurableStats()
		log.Printf("flexserve: wal recovery: %d documents (checkpoint lsn %d, %d records replayed, %d torn bytes truncated)",
			coll.Len(), s.CheckpointLSN, s.ReplayedRecords, s.TornBytesTruncated)
	}
	paths := flag.Args()
	if *dir != "" {
		files, err := flexpath.CorpusFiles(*dir)
		if err != nil {
			log.Fatal(err)
		}
		paths = append(files, paths...)
	}
	if err := addFiles(coll, paths); err != nil {
		log.Fatal(err)
	}
	mutable := *admin || *walDir != ""
	if coll.Len() == 0 && !mutable {
		fmt.Fprintln(os.Stderr, "flexserve: no documents given (use -admin to start empty behind flexrouter, or -wal to serve a durable corpus)")
		flag.Usage()
		os.Exit(2)
	}
	if *cache > 0 {
		// The collection cache serves repeated requests, and after a
		// mutation re-evaluates only the changed member.
		coll.SetCache(*cache)
	}
	h, _ := newHandlerConfig(coll, handlerConfig{
		timeout:       *timeout,
		slowCap:       *slowCap,
		slowThreshold: time.Duration(*slowMS) * time.Millisecond,
		pprof:         *pprofOn,
		maxInFlight:   *maxInFlight,
		admin:         mutable,
		maxBulk:       *maxBulk,
	})
	log.Printf("serving %d documents (%d elements) on %s (cache=%d, timeout=%v, slowlog=%d@%dms, pprof=%v, maxinflight=%d, admin=%v, wal=%q)",
		coll.Len(), coll.Nodes(), *addr, *cache, *timeout, *slowCap, *slowMS, *pprofOn, *maxInFlight, mutable, *walDir)

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
	if err != nil {
		log.Fatal(err)
	}
	// Drained: no handler is mid-request, so Close only waits for a
	// background checkpoint before closing the log and unmapping.
	if err := coll.Close(); err != nil {
		log.Printf("flexserve: close: %v", err)
	}
}

// addFiles adds each corpus file with Collection.AddFile, skipping a
// name that is already a member: with -wal, a document recovered from
// the log (replaced since it was first added, say) wins over its file,
// though a file whose document was removed is added again.
func addFiles(c *flexpath.Collection, paths []string) error {
	for _, path := range paths {
		if c.Has(path) {
			continue
		}
		if err := c.AddFile(path); err != nil {
			return err
		}
	}
	return nil
}
