package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"flexpath"
)

// TestMetricFamiliesPinned renders /metrics over a durable collection
// with a cold member and the result cache on, which renders every
// family, and compares the sorted family names with
// testdata/metric_families.txt and with README's table of families. A
// family is added or deleted by changing all three, and the table names
// who reads it.
func TestMetricFamiliesPinned(t *testing.T) {
	doc, err := flexpath.LoadString(serveXML)
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "cold.fxp3")
	if err := doc.SaveFXP3SnapshotFile(snap); err != nil {
		t.Fatal(err)
	}
	coll, err := flexpath.OpenDurableCollection(t.TempDir(), flexpath.DurableOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coll.Close() }) //nolint:errcheck
	if err := coll.AddSnapshotFile("cold.fxp3", snap); err != nil {
		t.Fatal(err)
	}
	coll.SetCache(16)
	h, _ := newHandlerConfig(coll, handlerConfig{admin: true})
	srv := httptest.NewServer(h)
	defer srv.Close()

	_, body := get(t, srv.URL+"/metrics")
	var got []string
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			got = append(got, strings.Fields(rest)[0])
		}
	}
	sort.Strings(got)
	rendered := strings.Join(got, "\n") + "\n"

	want, err := os.ReadFile("testdata/metric_families.txt")
	if err != nil {
		t.Fatal(err)
	}
	if rendered != string(want) {
		t.Errorf("/metrics families differ from testdata/metric_families.txt; rendered:\n%s", rendered)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var table []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(flexpath_\\w+)` \\|").FindAllSubmatch(readme, -1) {
		table = append(table, string(m[1]))
	}
	sort.Strings(table)
	if listed := strings.Join(table, "\n") + "\n"; listed != rendered {
		t.Errorf("README's table of metric families differs from /metrics; it lists:\n%s", listed)
	}
}
