package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexpath"
	"flexpath/internal/obs"
)

// durableServer builds a handler over a WAL-backed collection in dir and
// returns the server plus the collection (for Close between "restarts").
func durableServer(t *testing.T, dir string, maxBulk int) (*httptest.Server, *flexpath.Collection) {
	t.Helper()
	dur, err := flexpath.OpenDurableCollection(dir, flexpath.DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := newHandlerConfig(dur, handlerConfig{admin: true, maxBulk: maxBulk})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, dur
}

func bulkLine(op, name, doc string) string {
	b, _ := json.Marshal(bulkOp{Op: op, Name: name, Doc: doc})
	return string(b) + "\n"
}

func TestAdminBulkNonDurable(t *testing.T) {
	hh, _ := newHandlerConfig(testColl(t), handlerConfig{admin: true})
	srv := httptest.NewServer(hh)
	defer srv.Close()

	batch := bulkLine("upsert", "a.xml", adminXML) +
		bulkLine("add", "b.xml", adminXML) +
		bulkLine("replace", "b.xml", serveXML) +
		bulkLine("remove", "a.xml", "") +
		bulkLine("remove", "never-existed.xml", "") // retry-safe: no-op, not an error
	resp, body := post(t, srv.URL+"/admin/bulk", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk status %d: %s", resp.StatusCode, body)
	}
	var br bulkResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Applied != 5 || br.Failed != 0 {
		t.Fatalf("applied=%d failed=%d (%s), want 5/0", br.Applied, br.Failed, body)
	}
	if br.Documents != 2 { // lib.xml + b.xml
		t.Fatalf("documents=%d, want 2", br.Documents)
	}

	// Per-line failures are reported with their line numbers; the batch
	// still applies the good lines before a malformed one stops it.
	batch = bulkLine("add", "b.xml", adminXML) + // duplicate -> error
		bulkLine("upsert", "c.xml", adminXML) +
		"{not json\n"
	resp, body = post(t, srv.URL+"/admin/bulk", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Applied != 1 || br.Failed != 2 || len(br.Errors) != 2 {
		t.Fatalf("applied=%d failed=%d errors=%v, want 1 applied and 2 failures", br.Applied, br.Failed, br.Errors)
	}
	if br.Errors[0].Line != 1 || br.Errors[1].Line != 3 {
		t.Fatalf("error lines %d,%d, want 1,3", br.Errors[0].Line, br.Errors[1].Line)
	}

	// GET is not a mutation.
	resp, _ = get(t, srv.URL+"/admin/bulk")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET bulk: %d, want 405", resp.StatusCode)
	}
}

// TestAdminBulkNonDurableConcurrent: upsert and remove are retry-safe, so
// concurrent batches alternating them on one name never fail; each line is
// one collection call that resolves and applies under the collection's lock.
func TestAdminBulkNonDurableConcurrent(t *testing.T) {
	hh, _ := newHandlerConfig(testColl(t), handlerConfig{admin: true})
	h := hh.(*handler)
	const goroutines, ops, rounds = 8, 300, 5
	for round := 0; round < rounds; round++ {
		var failed atomic.Int64
		var first atomic.Value
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					op := bulkOp{Op: "upsert", Name: "x.xml", Doc: adminXML}
					if (g+i)%2 == 1 {
						op = bulkOp{Op: "remove", Name: "x.xml"}
					}
					if err := h.applyBulkOp(op); err != nil {
						failed.Add(1)
						first.CompareAndSwap(nil, err.Error())
					}
				}
			}(g)
		}
		wg.Wait()
		if n := failed.Load(); n > 0 {
			t.Fatalf("round %d: %d of %d ops failed, first: %v", round, n, goroutines*ops, first.Load())
		}
	}
}

// TestDirSameFilesWithWAL: -dir loads the same corpus with and without
// -wal — .xml and .fxp3 files in any case, never other files or
// directories — and a directory without a corpus file is an error. The
// magic, not the extension, decides a file's format: FXP3 bytes named
// .xml join cold like an upper-case .FXP3 snapshot, in both modes.
func TestDirSameFilesWithWAL(t *testing.T) {
	dir := t.TempDir()
	doc, err := flexpath.LoadString(adminXML)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.XML"), []byte(adminXML), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"b.FXP3", "c.xml"} {
		if err := doc.SaveFXP3SnapshotFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not a corpus file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.xml"), 0o755); err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "a.XML"), filepath.Join(dir, "b.FXP3"), filepath.Join(dir, "c.xml")}
	paths, err := flexpath.CorpusFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(paths, want) {
		t.Fatalf("corpus files %q, want %q", paths, want)
	}

	mem := flexpath.NewCollection()
	defer mem.Close() //nolint:errcheck
	dur, err := flexpath.OpenDurableCollection(t.TempDir(), flexpath.DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	for mode, c := range map[string]*flexpath.Collection{"in-memory": mem, "wal": dur} {
		if err := addFiles(c, paths); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if got := c.Names(); !slices.Equal(got, want) {
			t.Errorf("%s: loaded %q, want %q", mode, got, want)
		}
		if rs := c.ResidencyStats(); rs != (flexpath.ResidencyStats{Cold: 2, Pinned: 1}) {
			t.Errorf("%s: residency before any search: %+v, want the two FXP3 files cold", mode, rs)
		}
	}

	empty := t.TempDir()
	if err := os.WriteFile(filepath.Join(empty, "notes.txt"), []byte("not a corpus file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := flexpath.CorpusFiles(empty); err == nil {
		t.Error("a directory without corpus files listed none without an error")
	}
}

// The bulk concurrency bound rejects deterministically: a batch beyond
// maxBulk gets 429 + Retry-After before its body is read.
func TestAdminBulkBackpressure(t *testing.T) {
	hh, _ := newHandlerConfig(testColl(t), handlerConfig{admin: true, maxBulk: 1})
	h := hh.(*handler)
	srv := httptest.NewServer(hh)
	defer srv.Close()

	// First batch: a body that never finishes keeps the slot held.
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/admin/bulk", pr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Wait until the held batch occupies the semaphore.
	deadline := time.Now().Add(5 * time.Second)
	for len(h.bulkSem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first batch never started")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := post(t, srv.URL+"/admin/bulk", bulkLine("upsert", "x.xml", adminXML))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second batch: %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := h.srv.bulkRejected.Load(); got != 1 {
		t.Fatalf("bulkRejected = %d, want 1", got)
	}

	// Release the held batch; it completes normally.
	if _, err := io.WriteString(pw, bulkLine("upsert", "y.xml", adminXML)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatalf("held batch failed: %v", err)
	}

	// The rejection is visible in /metrics and the exposition stays valid.
	_, metrics := get(t, srv.URL+"/metrics")
	if !strings.Contains(string(metrics), "flexpath_server_bulk_rejected_total 1") {
		t.Error("bulk rejection not exported")
	}
	if err := obs.ValidateExposition(metrics); err != nil {
		t.Errorf("invalid exposition: %v", err)
	}
}

// memberBytes encodes every member of c as FXP3, by name: the canonical
// bytes of its tree, index and statistics.
func memberBytes(t *testing.T, c *flexpath.Collection) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range c.Names() {
		d, ok := c.Document(name)
		if !ok {
			t.Fatalf("member %s does not load", name)
		}
		var b bytes.Buffer
		if err := d.SaveFXP3Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		out[name] = b.Bytes()
	}
	return out
}

// End-to-end durability through the HTTP layer: mutate over /admin/,
// "crash" (close without checkpoint), restart on the same directory, and
// every recovered member must hold the FXP3 bytes it held before, while
// the recovery counters show up in /metrics.
func TestDurableAdminRecovery(t *testing.T) {
	dir := t.TempDir()
	srv, dur := durableServer(t, dir, 0)

	if resp, body := post(t, srv.URL+"/admin/add?name=lib.xml", serveXML); resp.StatusCode != http.StatusOK {
		t.Fatalf("add: %d %s", resp.StatusCode, body)
	}
	if resp, body := post(t, srv.URL+"/admin/bulk",
		bulkLine("upsert", "extra.xml", adminXML)+bulkLine("remove", "nothing.xml", "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk: %d %s", resp.StatusCode, body)
	}

	want := memberBytes(t, dur)
	if len(want) != 2 {
		t.Fatalf("members before the restart: %d, want lib.xml and extra.xml", len(want))
	}

	srv.Close()
	dur.Close()

	srv2, dur2 := durableServer(t, dir, 0)
	defer dur2.Close()
	if s, _ := dur2.DurableStats(); s.ReplayedRecords == 0 {
		t.Fatal("no records replayed on restart")
	}
	got := memberBytes(t, dur2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d members, want %d", len(got), len(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Errorf("member %s recovered with other FXP3 bytes", name)
		}
	}

	_, metrics := get(t, srv2.URL+"/metrics")
	for _, family := range []string{
		"flexpath_wal_appended_records_total",
		"flexpath_wal_replayed_records_total",
		"flexpath_wal_fsynced_records_total",
		"flexpath_wal_fsyncs_total",
	} {
		if !strings.Contains(string(metrics), family) {
			t.Errorf("metrics missing %s", family)
		}
	}
	if err := obs.ValidateExposition(metrics); err != nil {
		t.Errorf("invalid exposition with WAL families: %v", err)
	}
}

// TestAdminSameInBothModes: the in-memory and the -wal handler answer
// every admin request — failures and a mixed bulk batch included — with
// the same status and the same JSON body.
func TestAdminSameInBothModes(t *testing.T) {
	mem, _ := newHandlerConfig(testColl(t), handlerConfig{admin: true})
	memSrv := httptest.NewServer(mem)
	defer memSrv.Close()
	walSrv, dur := durableServer(t, t.TempDir(), 0)
	defer dur.Close()
	if err := put(dur.Add)("lib.xml", []byte(serveXML)); err != nil {
		t.Fatal(err)
	}

	batch := bulkLine("add", "x.xml", adminXML) +
		bulkLine("upsert", "y.xml", adminXML) +
		bulkLine("replace", "x.xml", serveXML) +
		bulkLine("remove", "y.xml", "") +
		bulkLine("remove", "never.xml", "") +
		bulkLine("add", "x.xml", adminXML) +
		bulkLine("replace", "ghost.xml", adminXML) +
		bulkLine("upsert", "bad.xml", "<unclosed") +
		bulkLine("drop", "x.xml", "") +
		bulkLine("add", "", adminXML)
	for _, c := range []struct {
		what, path, body string
		want             int
	}{
		{"GET", "/admin/add?name=x.xml", "", http.StatusMethodNotAllowed},
		{"no name", "/admin/add", adminXML, http.StatusBadRequest},
		{"duplicate add", "/admin/add?name=lib.xml", serveXML, http.StatusConflict},
		{"replace of a missing name", "/admin/replace?name=ghost.xml", serveXML, http.StatusNotFound},
		{"remove of a missing name", "/admin/remove?name=ghost.xml", "", http.StatusNotFound},
		{"bad XML", "/admin/add?name=bad.xml", "<unclosed", http.StatusBadRequest},
		{"add", "/admin/add?name=extra.xml", adminXML, http.StatusOK},
		{"replace", "/admin/replace?name=extra.xml", serveXML, http.StatusOK},
		{"remove", "/admin/remove?name=extra.xml", "", http.StatusOK},
		{"bulk", "/admin/bulk", batch, http.StatusOK},
	} {
		var bodies []string
		for _, base := range []string{memSrv.URL, walSrv.URL} {
			var resp *http.Response
			var body []byte
			if c.what == "GET" {
				resp, body = get(t, base+c.path)
			} else {
				resp, body = post(t, base+c.path, c.body)
			}
			if resp.StatusCode != c.want {
				t.Errorf("%s at %s: status %d, want %d: %s", c.what, base, resp.StatusCode, c.want, body)
			}
			bodies = append(bodies, string(body))
		}
		if bodies[0] != bodies[1] {
			t.Errorf("%s: in-memory body\n%s\ndiffers from -wal body\n%s", c.what, bodies[0], bodies[1])
		}
		if c.what == "bulk" {
			var br bulkResponse
			if err := json.Unmarshal([]byte(bodies[0]), &br); err != nil || br.Applied != 5 || br.Failed != 5 {
				t.Errorf("bulk: applied/failed = %d/%d (%v), want 5/5: %s", br.Applied, br.Failed, err, bodies[0])
			}
		}
	}
}
