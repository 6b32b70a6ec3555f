package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"flexpath"
	"flexpath/internal/xmark"
)

// tinyHarness builds a harness with a pre-seeded small document so figure
// runners execute quickly.
func tinyHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{runs: 1, seed: 42, docs: map[int64]*flexpath.Document{}}
	// Pre-seed every size the scaled sweeps would build with one tiny
	// document, so runners never construct multi-MB data in tests.
	tree, err := xmark.Build(xmark.Config{TargetBytes: 64 << 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	doc := flexpath.NewDocument(tree)
	for _, mb := range append(h.sizesMB(), 1, h.mediumMB(), h.largeMB()) {
		h.docs[int64(mb*float64(1<<20))] = doc
	}
	return h
}

// TestFigureRunners executes each paper-figure runner on a tiny document:
// they must complete without error and print rows.
func TestFigureRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runners skipped in -short mode")
	}
	h := tinyHarness(t)
	// Redirect stdout noise away from the test log is unnecessary; the
	// runners print tables, which is fine.
	old := os.Stdout
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err == nil {
		os.Stdout = devNull
		defer func() {
			os.Stdout = old
			devNull.Close()
		}()
	}
	h.fig9()
	h.fig13()
	h.fig17()
	h.fig18()
	h.figAuto()
}

// TestJSONCapture checks the -json sidecar: rows are captured against the
// most recent header and written with run metadata.
func TestJSONCapture(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	h := tinyHarness(t)
	h.jsonPath = path
	h.figName = "unit"
	h.row("algo", "cold_ms", "speedup")
	h.row("dpo", 12*time.Millisecond, 3.5)
	h.writeJSON()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Runs    int                      `json:"runs"`
		Records []map[string]interface{} `json:"records"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, raw)
	}
	if out.Runs != 1 || len(out.Records) != 1 {
		t.Fatalf("json sidecar: %+v", out)
	}
	rec := out.Records[0]
	if rec["figure"] != "unit" || rec["algo"] != "dpo" {
		t.Errorf("record: %+v", rec)
	}
	if ms, ok := rec["cold_ms"].(float64); !ok || ms != 12 {
		t.Errorf("duration not converted to ms: %v", rec["cold_ms"])
	}
}

func TestHarnessSizes(t *testing.T) {
	h := &harness{}
	if h.mediumMB() != 10 {
		t.Errorf("medium = %f", h.mediumMB())
	}
	if h.largeMB() != 25 {
		t.Errorf("large (scaled) = %f", h.largeMB())
	}
	h.full = true
	if h.largeMB() != 100 {
		t.Errorf("large (full) = %f", h.largeMB())
	}
	if got := h.sizesMB(); got[len(got)-1] != 100 {
		t.Errorf("full sizes = %v", got)
	}
	if len(h.kSweep()) != 7 {
		t.Errorf("k sweep = %v", h.kSweep())
	}
}
