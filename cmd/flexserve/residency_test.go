package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"flexpath"
	"flexpath/internal/obs"
)

// residencyServer serves a collection of n cold FXP3 members under a
// residency cap of 1.
func residencyServer(t *testing.T, n int) (*httptest.Server, *flexpath.Collection) {
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
	coll.SetResidency(1)
	srv := httptest.NewServer(newHandler(coll))
	t.Cleanup(srv.Close)
	return srv, coll
}

func TestStatsAndMetricsReportResidency(t *testing.T) {
	srv, _ := residencyServer(t, 3)

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
	if st.Residency.Cold != 3 || st.Residency.Resident != 0 || st.Residency.Max != 1 {
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

	// A search faults documents in; the cap keeps at most one resident.
	if resp, body := get(t, srv.URL+"/search?q="+escape(serveQuery)+"&k=10&algo=hybrid"); resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d: %s", resp.StatusCode, body)
	}
	_, body = get(t, srv.URL+"/stats")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Residency.Resident > 1 || st.Residency.Faults != 3 || st.Residency.Evictions < 2 {
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
		"flexpath_resident_docs_max 1",
		"flexpath_resident_docs_pinned 0",
		"flexpath_resident_faults_total 3",
		"flexpath_documents 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Gauges whose value moves with the working set are present even
	// when we can't pin the exact number.
	for _, want := range []string{"flexpath_resident_docs ", "flexpath_resident_docs_cold ", "flexpath_resident_evictions_total ",
		"flexpath_resident_fault_seconds_total ", `flexpath_stage_duration_seconds_count{stage="fault"} 1`} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing family %q", want)
		}
	}
}

// An all-pinned collection (no snapshot members, no cap) reports no
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

func TestSearchServesColdCorpusIdentically(t *testing.T) {
	srv, coll := residencyServer(t, 3)
	url := srv.URL + "/search?q=" + escape(serveQuery) + "&k=10&algo=hybrid&nocache=1"
	// The response is byte-identical across passes except for the
	// timing field.
	stripTiming := func(body []byte) string {
		var lines []string
		for _, l := range strings.Split(string(body), "\n") {
			if !strings.Contains(l, `"elapsed_ms"`) {
				lines = append(lines, l)
			}
		}
		return strings.Join(lines, "\n")
	}
	_, first := get(t, url)
	want := stripTiming(first)
	// Re-searching after evictions (the cap is 1, so every pass evicts)
	// returns identical rankings.
	for i := 0; i < 3; i++ {
		if _, body := get(t, url); stripTiming(body) != want {
			t.Fatalf("response drifted on pass %d:\n%s\nvs\n%s", i, stripTiming(body), want)
		}
	}
	if s := coll.ResidencyStats(); s.Evictions == 0 {
		t.Fatalf("cap never exercised: %+v", s)
	}
}
