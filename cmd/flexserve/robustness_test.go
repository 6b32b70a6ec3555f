package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"flexpath"
	"flexpath/internal/obs"
	"flexpath/internal/serveutil"
)

func testColl(t *testing.T) *flexpath.Collection {
	t.Helper()
	doc, err := flexpath.LoadString(serveXML)
	if err != nil {
		t.Fatal(err)
	}
	coll := flexpath.NewCollection()
	if err := coll.Add("lib.xml", doc); err != nil {
		t.Fatal(err)
	}
	return coll
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	b := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(b)
		buf.Write(b[:n])
		if err != nil {
			break
		}
	}
	return resp, []byte(buf.String())
}

const adminXML = `<lib>
  <book id="b3"><chapter><para>xml streaming additions</para></chapter></book>
</lib>`

// A request beyond the max-in-flight limit is shed immediately with
// 503 + Retry-After — never queued, never a hang — and the shed shows up
// in the flexpath_server_* metric families.
func TestShedBeyondMaxInFlight(t *testing.T) {
	hh, _ := newHandlerConfig(testColl(t), handlerConfig{maxInFlight: 1})
	h := hh.(*handler)
	srv := httptest.NewServer(hh)
	defer srv.Close()

	// Deterministically occupy the only admission slot.
	h.sem <- struct{}{}
	resp, body := get(t, srv.URL+"/search?q="+escape(serveQuery)+"&k=5")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 response missing Retry-After")
	}
	var eb serveutil.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Errorf("shed body: %s", body)
	}
	// Operational endpoints bypass the limiter even while saturated.
	for _, path := range []string{"/healthz", "/metrics", "/stats"} {
		if resp, _ := get(t, srv.URL+path); resp.StatusCode != http.StatusOK {
			t.Errorf("%s under saturation: status %d, want 200", path, resp.StatusCode)
		}
	}
	<-h.sem

	// With the slot free the same request succeeds.
	if resp, body := get(t, srv.URL+"/search?q="+escape(serveQuery)+"&k=5"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-shed search: status %d: %s", resp.StatusCode, body)
	}
	resp, body = get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	text := string(body)
	for _, want := range []string{
		"flexpath_server_shed_total 1",
		"flexpath_server_inflight_requests 0",
		"flexpath_server_max_inflight 1",
		"flexpath_server_panics_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// A panicking handler becomes a 500 and a counter increment; the server
// keeps serving.
func TestPanicRecovery(t *testing.T) {
	hh, _ := newHandlerConfig(testColl(t), handlerConfig{})
	h := hh.(*handler)
	h.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	srv := httptest.NewServer(hh)
	defer srv.Close()

	resp, body := get(t, srv.URL+"/boom")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	var eb serveutil.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Errorf("panic body: %s", body)
	}
	if resp, body := get(t, srv.URL+"/search?q="+escape(serveQuery)+"&k=5"); resp.StatusCode != http.StatusOK {
		t.Fatalf("search after panic: status %d: %s", resp.StatusCode, body)
	}
	_, body = get(t, srv.URL+"/metrics")
	if !strings.Contains(string(body), "flexpath_server_panics_total 1") {
		t.Error("panic counter not exported")
	}
}

// The /admin/ endpoints mutate the corpus without a restart; searches
// see each change. TestAdminSameInBothModes covers the failure statuses.
func TestAdminEndpoints(t *testing.T) {
	hh, _ := newHandlerConfig(testColl(t), handlerConfig{admin: true})
	srv := httptest.NewServer(hh)
	defer srv.Close()

	// Add a second document and search it.
	resp, body := post(t, srv.URL+"/admin/add?name=extra.xml", adminXML)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add: status %d: %s", resp.StatusCode, body)
	}
	var ar adminResponse
	if err := json.Unmarshal(body, &ar); err != nil || ar.Documents != 2 {
		t.Fatalf("add response: %s", body)
	}
	resp, body = get(t, srv.URL+"/search?q="+escape(serveQuery)+"&k=10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d: %s", resp.StatusCode, body)
	}
	var sr serveutil.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range sr.Answers {
		seen[a.Doc] = true
	}
	if !seen["extra.xml"] {
		t.Errorf("added document contributes no answers: %s", body)
	}

	// Replace swaps content in place.
	repl := `<lib><book id="b9"><chapter><para>xml streaming rewrite</para></chapter></book></lib>`
	if resp, body := post(t, srv.URL+"/admin/replace?name=extra.xml", repl); resp.StatusCode != http.StatusOK {
		t.Fatalf("replace: status %d: %s", resp.StatusCode, body)
	}
	resp, body = get(t, srv.URL+"/search?q="+escape(serveQuery)+"&k=10")
	if resp.StatusCode != http.StatusOK {
		t.Fatal("search after replace failed")
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	for _, a := range sr.Answers {
		if a.Doc == "extra.xml" && a.ID == "b3" {
			t.Errorf("stale answer from replaced document: %+v", a)
		}
	}

	// Remove returns the corpus to one document.
	if resp, body := post(t, srv.URL+"/admin/remove?name=extra.xml", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d: %s", resp.StatusCode, body)
	}
	var st statsResponse
	_, body = get(t, srv.URL+"/stats")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Documents != 1 {
		t.Errorf("documents = %d after remove, want 1", st.Documents)
	}
}

// Without -admin the mutation endpoints do not exist.
func TestAdminGating(t *testing.T) {
	h, _ := newHandlerConfig(testColl(t), handlerConfig{})
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, path := range []string{"/admin/add?name=x", "/admin/remove?name=x", "/admin/replace?name=x", "/admin/bulk"} {
		if resp, _ := post(t, srv.URL+path, adminXML); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without -admin: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// End-to-end: concurrent searches while the corpus is mutated over HTTP.
// Run under -race, this is the serving-path proof that live mutation is
// safe: every search must return 200 with a coherent body.
func TestAdminMutateWhileSearching(t *testing.T) {
	coll := testColl(t)
	coll.SetCache(64)
	hh, _ := newHandlerConfig(coll, handlerConfig{admin: true})
	srv := httptest.NewServer(hh)
	defer srv.Close()

	searchURL := srv.URL + "/search?q=" + escape(serveQuery) + "&k=5"
	var wg sync.WaitGroup
	errc := make(chan error, 128)
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				resp, err := http.Get(searchURL)
				if err != nil {
					errc <- err
					return
				}
				var sr serveutil.SearchResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil {
					errc <- fmt.Errorf("bad search body: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("search status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			name := fmt.Sprintf("mut%d.xml", m)
			for i := 0; i < 20; i++ {
				resp, err := http.Post(srv.URL+"/admin/add?name="+name, "application/xml", strings.NewReader(adminXML))
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("add status %d", resp.StatusCode)
					return
				}
				resp, err = http.Post(srv.URL+"/admin/remove?name="+name, "application/xml", nil)
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("remove status %d", resp.StatusCode)
					return
				}
			}
		}(m)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if resp, body := get(t, srv.URL+"/search?q="+escape(serveQuery)+"&k=5"); resp.StatusCode != http.StatusOK {
		t.Errorf("search after mutation storm: status %d: %s", resp.StatusCode, body)
	}
}
