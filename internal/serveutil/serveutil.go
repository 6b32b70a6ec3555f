// Package serveutil holds what flexserve and flexrouter must do
// identically: the HTTP server lifecycle (serve until failure or a
// shutdown signal, then drain gracefully — CI kills and restarts them
// interchangeably), the /search request rules the router checks before
// it fans out, so it rejects exactly what a shard would, and the JSON
// shapes of a search response, so a routed answer re-encodes to the
// shard's bytes.
package serveutil

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"flexpath"
	"flexpath/internal/lru"
)

// maxK bounds the k parameter of one request and maxOffset how deep
// pagination may reach: every member document materializes its top
// K+Offset answers, so both bound the work one request can ask for.
const (
	maxK      = 1000
	maxOffset = 10000
	// maxSnippet bounds the snippet parameter, in bytes.
	maxSnippet = 4096
	// queryMemoCapacity bounds the parsed-query memo; it is flexserve's
	// default result-cache size, so a server that answers its hot
	// queries from that cache also parses none of them.
	queryMemoCapacity = 1024
	// maxMemoText is the longest q text the memo keeps, so that it pins
	// at most a few megabytes whatever the clients send; a longer text
	// is parsed on every request.
	maxMemoText = 4096
)

// queries memoizes q text → parsed query for ParseSearch. A *Query is
// immutable and safe to share (it memoizes its canonical key and, on
// the first template miss, its relaxation shape), so a repeated text
// skips parsing, and after a mutation it skips rebuilding the shape. A
// text is kept on its second sighting, so one asked once stays out;
// parse errors are never stored.
var queries = lru.New[*flexpath.Query](queryMemoCapacity)

var (
	errMissingQuery = errors.New("missing q parameter")
	errBadK         = errors.New("k must be an integer between 1 and 1000")
	errBadOffset    = errors.New("offset must be an integer between 0 and 10000")
	errBadWeight    = errors.New("ws and wc must be positive numbers")
)

// Search is a parsed /search request.
type Search struct {
	Query *flexpath.Query
	// Opts holds k, offset, algo, scheme, ws and wc; absent parameters
	// keep the library defaults (K 10, Auto, structure-first, unit
	// weights).
	Opts flexpath.SearchOptions
	// Why (why=1) asks for each answer's relaxations; Snippet asks for up
	// to that many bytes of its text (0, or an invalid value, for none).
	Why     bool
	Snippet int
}

// ParseSearch parses a /search request's parameters. Every error is the
// client's, answered with 400 and the error's message.
func ParseSearch(v url.Values) (Search, error) {
	src := v.Get("q")
	if src == "" {
		return Search{}, errMissingQuery
	}
	q, err := parseQuery(src)
	if err != nil {
		return Search{}, err
	}
	s := Search{Query: q, Opts: flexpath.SearchOptions{K: 10}, Why: v.Get("why") == "1"}
	if ks := v.Get("k"); ks != "" {
		k, err := strconv.Atoi(ks)
		if err != nil || k < 1 || k > maxK {
			return Search{}, errBadK
		}
		s.Opts.K = k
	}
	if os := v.Get("offset"); os != "" {
		o, err := strconv.Atoi(os)
		if err != nil || o < 0 || o > maxOffset {
			return Search{}, errBadOffset
		}
		s.Opts.Offset = o
	}
	if a := v.Get("algo"); a != "" {
		if s.Opts.Algorithm, err = flexpath.ParseAlgorithm(a); err != nil {
			return Search{}, err
		}
	}
	if sc := v.Get("scheme"); sc != "" {
		if s.Opts.Scheme, err = flexpath.ParseScheme(sc); err != nil {
			return Search{}, err
		}
	}
	var ok bool
	if ws := v.Get("ws"); ws != "" {
		if s.Opts.Weights.Structural, ok = parseWeight(ws); !ok {
			return Search{}, errBadWeight
		}
	}
	if wc := v.Get("wc"); wc != "" {
		if s.Opts.Weights.Contains, ok = parseWeight(wc); !ok {
			return Search{}, errBadWeight
		}
	}
	if n, err := strconv.Atoi(v.Get("snippet")); err == nil && n > 0 && n <= maxSnippet {
		s.Snippet = n
	}
	return s, nil
}

// parseQuery parses a q text through the memo, unless it is too long to
// keep.
func parseQuery(src string) (*flexpath.Query, error) {
	if len(src) > maxMemoText {
		return flexpath.ParseQuery(src)
	}
	return queries.Do(src, func() (*flexpath.Query, error) { return flexpath.ParseQuery(src) })
}

// parseWeight parses a ws or wc parameter, a predicate weight: valid
// values are positive numbers.
func parseWeight(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && v > 0
}

// Answers renders a ranking as the request asked for, ranked from 1.
func (s Search) Answers(ranking []flexpath.CollectionAnswer) []Answer {
	out := make([]Answer, 0, len(ranking))
	for i, a := range ranking {
		sa := Answer{
			Rank: i + 1, Doc: a.DocName, Path: a.Path, ID: a.ID,
			Structural: a.Structural, Keyword: a.Keyword, Relaxations: a.Relaxations,
		}
		if s.Why {
			sa.Relaxed = a.Relaxed
		}
		if s.Snippet > 0 {
			sa.Snippet = a.Snippet(s.Snippet)
		}
		out = append(out, sa)
	}
	return out
}

// Answer is one answer of a search response. The router decodes shards'
// answers into it and encodes the merged ranking from it, and Go's
// float64 JSON round trip is exact, so a routed answer is byte-identical
// to the shard's rendering.
type Answer struct {
	Rank        int      `json:"rank"`
	Doc         string   `json:"doc"`
	Path        string   `json:"path"`
	ID          string   `json:"id,omitempty"`
	Structural  float64  `json:"structural"`
	Keyword     float64  `json:"keyword"`
	Relaxations int      `json:"relaxations"`
	Relaxed     []string `json:"relaxed,omitempty"`
	Snippet     string   `json:"snippet,omitempty"`
}

// SearchResponse is the body of a successful /search.
type SearchResponse struct {
	Query string `json:"query"`
	// Algo names the algorithm that evaluated the search: the one Auto's
	// rule chose under the default Auto mode, the requested algorithm
	// otherwise. AlgoReason names the rule's branch (Auto only).
	Algo       string   `json:"algo,omitempty"`
	AlgoReason string   `json:"algo_reason,omitempty"`
	Answers    []Answer `json:"answers"`
	ElapsedMS  float64  `json:"elapsed_ms"`
}

// ErrorBody is the body of every error response.
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteJSON writes v as a compact, one-line JSON response with the given
// status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // nothing to do about write errors here
}

// Serve runs srv on ln until it fails or a shutdown signal arrives, then
// gracefully drains: the listener closes immediately (new connections are
// refused), in-flight requests get up to drain to finish, and only then
// does Serve return. A drain overrun force-closes remaining connections
// and reports an error; a clean drain returns nil.
//
// name labels log lines; the signal channel is a parameter so tests can
// drive the lifecycle deterministically.
func Serve(name string, srv *http.Server, ln net.Listener, sig <-chan os.Signal, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case s := <-sig:
		log.Printf("%s: received %v: refusing new connections, draining in-flight requests (deadline %v)", name, s, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
			return fmt.Errorf("%s: drain deadline exceeded: %w", name, err)
		}
		log.Printf("%s: drained cleanly", name)
		return nil
	}
}
