// Command flexrouter is the scatter-gather front-end of a sharded
// flexserve deployment: documents are placed on shards by consistent
// hashing, every query fans out to all shards with the per-shard
// K+Offset trick, and shard rankings are merged with the exact comparator
// Collection.Search uses (internal/merge) — so a router response is
// byte-identical to a single flexserve over the union corpus.
//
// Usage:
//
//	flexserve -admin -addr :9001 &
//	flexserve -admin -addr :9002 &
//	flexserve -admin -addr :9003 &
//	flexrouter -addr :8080 -shards http://127.0.0.1:9001,http://127.0.0.1:9002,http://127.0.0.1:9003
//
// Endpoints:
//
//	GET  /search?q=QUERY&k=10&offset=0&algo=auto&scheme=structure-first&ws=1&wc=1&why=1&snippet=200
//	GET  /stats            shard health, per-shard and total corpus sizes
//	GET  /metrics          flexpath_router_* Prometheus families
//	GET  /healthz
//	POST /admin/add?name=NAME      forwarded to the shard owning NAME
//	POST /admin/remove?name=NAME
//	POST /admin/replace?name=NAME
//
// Degradation is graceful: each shard request gets its own deadline
// (-shardtimeout) and bounded jittered retries on connection errors
// (-retries); when some shards fail the response is still HTTP 200 with
// the surviving shards' merged answers plus "shards_ok"/"shards_total"
// (and "partial": true) so callers can tell a complete ranking from a
// degraded one. Only when every shard fails does /search return 502.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flexpath/internal/serveutil"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shardsFlag := flag.String("shards", "", "comma-separated shard base URLs (required), e.g. http://127.0.0.1:9001,http://127.0.0.1:9002")
	shardTimeout := flag.Duration("shardtimeout", 5*time.Second, "per-shard request deadline (each retry attempt gets a fresh deadline)")
	retries := flag.Int("retries", 2, "max retries per shard on connection errors, with jittered exponential backoff")
	drain := flag.Duration("drain", 10*time.Second, "how long to drain in-flight requests on SIGINT/SIGTERM")
	flag.Parse()

	shards, err := parseShards(*shardsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flexrouter: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	rt, err := newRouter(shards, routerConfig{
		shardTimeout: *shardTimeout,
		retries:      *retries,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("routing over %d shards on %s (shardtimeout=%v, retries=%d): %s",
		len(shards), *addr, *shardTimeout, *retries, strings.Join(shards, ", "))

	srv := &http.Server{
		Handler:           rt,
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
	if err := serveutil.Serve("flexrouter", srv, ln, sig, *drain); err != nil {
		log.Fatal(err)
	}
}

// parseShards splits and normalizes the -shards list: absolute http(s)
// URLs, no trailing slash, no duplicates.
func parseShards(s string) ([]string, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -shards")
	}
	var shards []string
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		u := strings.TrimRight(strings.TrimSpace(part), "/")
		if u == "" {
			continue
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("shard %q: must be an absolute http(s) URL", u)
		}
		if seen[u] {
			return nil, fmt.Errorf("duplicate shard %q", u)
		}
		seen[u] = true
		shards = append(shards, u)
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("missing -shards")
	}
	return shards, nil
}
