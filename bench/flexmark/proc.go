package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// sandbox owns everything a run leaves outside its own memory: child
// processes and temporary directories. Whatever way the run ends — normal
// return, failed set-up, watchdog, SIGINT — cleanup kills and reaps every
// child and removes every directory, so a run never leaks a flexserve or a
// WAL directory into the next one.
type sandbox struct {
	mu    sync.Mutex
	procs []*child
	dirs  []string
}

// child is one started process. done is closed once it has been reaped.
type child struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{}
}

// tempDir creates a directory under os.TempDir (the runner script points
// TMPDIR into the checkout) that cleanup will remove.
func (s *sandbox) tempDir(pattern string) (string, error) {
	dir, err := os.MkdirTemp("", pattern)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.dirs = append(s.dirs, dir)
	s.mu.Unlock()
	return dir, nil
}

// start runs bin with args as a child that dies with this process.
func (s *sandbox) start(bin string, args ...string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	c.cmd.Stderr = &c.stderr
	// If the harness is killed outright no handler runs; the kernel then
	// delivers SIGKILL to the child.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = c.cmd.Wait() // the exit status of a killed child carries no news
		close(c.done)
	}()
	s.mu.Lock()
	s.procs = append(s.procs, c)
	s.mu.Unlock()
	return c, nil
}

// kill sends SIGKILL (the crash the durability check needs: no drain, no
// final fsync) and returns once the child has been reaped.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.done
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// cleanup kills and reaps all children, then removes all temp dirs. It is
// idempotent.
func (s *sandbox) cleanup() {
	s.mu.Lock()
	procs, dirs := s.procs, s.dirs
	s.procs, s.dirs = nil, nil
	s.mu.Unlock()
	for _, c := range procs {
		c.kill()
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d) // best effort: nothing more can be done about a leftover
	}
}

// guard arranges for cleanup on SIGINT/SIGTERM and after limit (a hung run
// must still exit, non-zero, inside the driver's per-run allowance). The
// returned function disarms both.
func (s *sandbox) guard(limit time.Duration) (disarm func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		select {
		case <-sig:
			s.cleanup()
			os.Exit(130)
		case <-time.After(limit):
			s.cleanup()
			fmt.Fprintf(os.Stderr, "flexmark: aborted: run exceeded %v\n", limit)
			os.Exit(3)
		case <-stop:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(stop)
	}
}

// server is a flexserve child listening on addr.
type server struct {
	*child
	addr string
}

// startServer starts the flexserve binary on a free loopback port with the
// given extra flags and waits until /healthz answers. It returns how long
// the server took from exec to healthy.
func (s *sandbox) startServer(bin string, flags ...string) (*server, time.Duration, error) {
	// flexserve logs the address it was given, not the one it bound, so
	// the port is chosen here.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()

	t0 := time.Now()
	c, err := s.start(bin, append([]string{"-addr", addr}, flags...)...)
	if err != nil {
		return nil, 0, err
	}
	srv := &server{child: c, addr: addr}
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return srv, time.Since(t0), nil
			}
		}
		select {
		case <-c.done:
			return nil, 0, fmt.Errorf("flexserve exited during start-up: %s", c.stderr.String())
		default:
		}
		if time.Since(t0) > 30*time.Second {
			c.kill()
			return nil, 0, errors.New("flexserve did not become healthy within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
