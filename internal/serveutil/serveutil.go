// Package serveutil holds what flexserve and flexrouter must do
// identically: the HTTP server lifecycle (serve until failure or a
// shutdown signal, then drain gracefully — CI kills and restarts them
// interchangeably) and the request rules the router checks before it
// fans out, so it rejects exactly what a shard would.
package serveutil

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"
)

// ParseWeight parses a ws or wc request parameter, a predicate weight:
// valid values are positive numbers.
func ParseWeight(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && v > 0
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
