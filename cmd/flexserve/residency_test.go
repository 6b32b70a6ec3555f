package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexpath"
	"flexpath/internal/obs"
	"flexpath/internal/serveutil"
)

// residencyServer serves a collection of n cold FXP3 members.
func residencyServer(t *testing.T, n int) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	coll := flexpath.NewCollection()
	t.Cleanup(func() { coll.Close() }) //nolint:errcheck
	for i := 0; i < n; i++ {
		xml := strings.ReplaceAll(serveXML, `id="b`, fmt.Sprintf(`id="d%d-b`, i))
		doc, err := flexpath.LoadString(xml)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("doc%d.fxp3", i))
		if err := doc.SaveFXP3SnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		if err := coll.AddSnapshotFile(fmt.Sprintf("doc%d", i), path); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := newHandlerConfig(coll, handlerConfig{})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func TestStatsAndMetricsReportResidency(t *testing.T) {
	srv := residencyServer(t, 3)

	// Before any search: all members cold, and reading stats must not
	// fault them in.
	resp, body := get(t, srv.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if st.Residency == nil {
		t.Fatalf("residency block missing: %s", body)
	}
	if st.Residency.Cold != 3 || st.Residency.Resident != 0 {
		t.Fatalf("residency before search: %+v", st.Residency)
	}
	if st.Documents != 3 || len(st.PerDoc) != 3 {
		t.Fatalf("documents %d per_doc %v", st.Documents, st.PerDoc)
	}
	for name, n := range st.PerDoc {
		if n <= 0 {
			t.Fatalf("per_doc[%s] = %d (meta should supply cold node counts)", name, n)
		}
	}

	// A search faults every document in, once.
	if resp, body := get(t, srv.URL+"/search?q="+escape(serveQuery)+"&k=10&algo=hybrid"); resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d: %s", resp.StatusCode, body)
	}
	_, body = get(t, srv.URL+"/stats")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Residency.Resident != 3 || st.Residency.Cold != 0 || st.Residency.Faults != 3 {
		t.Fatalf("residency after search: %+v", st.Residency)
	}
	if st.Residency.FaultNanos <= 0 || !strings.Contains(string(body), `"fault_nanos"`) {
		t.Fatalf("three faults took no time: %+v", st.Residency)
	}

	resp, body = get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		"flexpath_resident_docs 3",
		"flexpath_resident_faults_total 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	for _, want := range []string{"flexpath_resident_fault_seconds_total ", `flexpath_stage_duration_seconds_count{stage="fault"} 1`} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing family %q", want)
		}
	}
	for _, gone := range []string{"flexpath_resident_docs_max", "flexpath_resident_evictions_total"} {
		if strings.Contains(text, gone) {
			t.Errorf("metrics still export %q: there is no residency cap", gone)
		}
	}
}

// An all-pinned collection (no snapshot members) reports no
// residency block: the field is for mmap-backed serving only.
func TestStatsOmitResidencyWhenUnused(t *testing.T) {
	srv := testServer(t)
	_, body := get(t, srv.URL+"/stats")
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Residency != nil {
		t.Fatalf("residency reported for an in-memory corpus: %+v", st.Residency)
	}
	_, body = get(t, srv.URL+"/metrics")
	if !strings.Contains(string(body), "flexpath_resident_docs") {
		t.Error("resident metric families should always be exported")
	}
}

// /relaxations and /plan over a cold member whose fault-in fails answer
// a JSON 500 naming the member, as /search does — not a nil-pointer
// panic recovered into a generic 500.
func TestUnfaultableMemberIs500NotPanic(t *testing.T) {
	doc, err := flexpath.LoadString(serveXML)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad.fxp3")
	if err := doc.SaveFXP3SnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-9] ^= 0xFF // inside the last section's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	coll := flexpath.NewCollection()
	t.Cleanup(func() { coll.Close() }) //nolint:errcheck
	if err := coll.AddSnapshotFile("bad.fxp3", path); err != nil {
		t.Fatal(err)
	}
	h, _ := newHandlerConfig(coll, handlerConfig{})
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, ep := range []string{"/search", "/relaxations", "/plan"} {
		resp, body := get(t, srv.URL+ep+"?q="+escape(serveQuery))
		var eb serveutil.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || resp.StatusCode != http.StatusInternalServerError ||
			!strings.Contains(eb.Error, `"bad.fxp3"`) {
			t.Errorf("%s: status %d, body %s; want a 500 naming bad.fxp3", ep, resp.StatusCode, body)
		}
	}
	if _, body := get(t, srv.URL+"/metrics"); !strings.Contains(string(body), "flexpath_server_panics_total 0") {
		t.Error("a handler panicked on the unfaultable member")
	}
}
