// Command flexmark is the repository's benchmark: four seeded workloads, each
// measured end to end and, in a separate traced run, layer by layer.
//
//	flexmark --workload doc_paper --seed 1 --seconds 20 --trace 0
//
// builds the workload's corpus from the seed, measures for the given time,
// verifies the answers and prints every end-to-end metric; the last line of
// standard output is one JSON object {correct, attempted, failed, metrics}.
// With --trace 1 it prints the per-layer metrics instead and writes the spans
// to bench/out/<workload>.spans.json. With -repeat N it runs each workload N
// times in fresh processes and reports how far the runs agree.
//
// bench/README.md documents the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

var workloadNames = []string{"doc_paper", "coll_adhoc", "coll_cold", "serve_mixed"}

// errOut receives diagnostics; standard output is reserved for results.
var errOut io.Writer = os.Stderr

// runLimit is when a hung run is abandoned. The driver allows 180 s.
const runLimit = 150 * time.Second

func main() {
	var cfg config
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", ")+" (with -repeat: empty runs all four)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the corpus, the queries and the op order")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced, per-layer run instead of the end-to-end one")
	flag.BoolVar(&cfg.check, "check", true, "verify every answer against a reference")
	flag.StringVar(&cfg.flexserve, "flexserve", "", "path of the built cmd/flexserve binary (bench/run.sh passes it)")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for run records and spans")
	flag.IntVar(&repeat, "repeat", 0, "A/A mode: run each workload this many times with the same seed and report how far the runs agree")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.scale = 1

	if repeat > 0 {
		os.Exit(repeatMode(cfg, repeat))
	}

	sb := &sandbox{}
	disarm := sb.guard(runLimit)
	res, rec, err := runOnce(cfg, sb)
	sb.cleanup()
	disarm()
	if err != nil {
		fmt.Fprintln(errOut, "flexmark:", err)
		os.Exit(1)
	}
	if err := writeRecord(cfg, rec); err != nil {
		fmt.Fprintln(errOut, "flexmark:", err)
		os.Exit(1)
	}
	printHuman(rec)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(errOut, "flexmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func writeRecord(cfg config, rec record) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if cfg.trace {
		kind = "trace"
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, fmt.Sprintf("%s.%s.seed%d.json", cfg.workload, kind, cfg.seed)), b, 0o644)
}

// printHuman prints every metric by name with its unit, the sample counts
// and the attempted/failed op counts, above the machine-readable last line.
func printHuman(rec record) {
	fmt.Printf("workload %s  seed %d  commit %s  %s  nproc %d  GOMAXPROCS %d  tmp on %s\n",
		rec.Workload, rec.Seed, rec.Env.Commit, rec.Env.GoVersion, rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.TempFS)
	fmt.Printf("measured %.2f s: %d search samples, %d mutation samples; %d ops attempted, %d failed\n",
		rec.MeasuredS, rec.Searches, rec.Mutations, rec.Result.Attempted, rec.Result.Failed)
	names := make([]string, 0, len(rec.Result.Metrics))
	for name := range rec.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Result.Metrics[name]
		fmt.Printf("  %-42s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if len(rec.SegmentP50) > 0 {
		fmt.Printf("  %-42s %14.4f ms (recorded, not gated)\n", "search p50, median over segments", median(rec.SegmentP50))
	}
	for _, note := range []string{rec.ShapeCheck, rec.LadderCheck} {
		if note != "" {
			fmt.Println("  " + note)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the A/A mode needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// aaReport is what the A/A mode prints and what bench/results/ holds.
type aaReport struct {
	Env       environment                  `json:"env"`
	Seed      int64                        `json:"seed"`
	Seconds   float64                      `json:"seconds"`
	Runs      int                          `json:"runs"`
	Workloads map[string]map[string]aaStat `json:"workloads"`
	Attempted map[string]int               `json:"attempted"`
	Failed    map[string]int               `json:"failed"`
	WithinAll bool                         `json:"all_within_bounds"`
}

type aaStat struct {
	spread
	Bound  float64   `json:"bound"`
	Within bool      `json:"within_bound"`
	Values []float64 `json:"values"`
}

// repeatMode runs each workload n times with the same seed, each run in its
// own process, so that what differs between the runs is the host and nothing
// else. For every end-to-end metric it prints the median, the quartiles, the
// range (max-min)/median and the spread the benchmark contract defines — the
// distance between the quartiles as a share of the median, by Python's
// statistics.quantiles rule — and holds that spread against the metric's
// bound in BENCHMARK.json. It returns the process exit code: 1 when a spread
// exceeds its bound or an op failed.
func repeatMode(cfg config, n int) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	var spec benchmarkSpec
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintln(errOut, "flexmark: -repeat reads the bounds from BENCHMARK.json in the current directory:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(errOut, "flexmark:", err)
		return 2
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	rep := aaReport{
		Env: describeEnvironment(), Seed: cfg.seed, Seconds: cfg.seconds, Runs: n,
		Workloads: map[string]map[string]aaStat{}, Attempted: map[string]int{}, Failed: map[string]int{},
		WithinAll: true,
	}
	for _, name := range names {
		values := map[string][]float64{}
		for i := 1; i <= n; i++ {
			res, err := runChild(self, cfg, name)
			if err != nil {
				fmt.Fprintf(errOut, "flexmark: %s run %d: %v\n", name, i, err)
				return 2
			}
			rep.Attempted[name] += res.Attempted
			rep.Failed[name] += res.Failed
			for metric, m := range res.Metrics {
				values[metric] = append(values[metric], m.Value)
			}
			fmt.Fprintf(errOut, "%s run %d/%d done\n", name, i, n)
		}
		rep.Workloads[name] = map[string]aaStat{}
		for _, e := range spec.EndToEnd {
			if len(values[e.Name]) < 2 {
				continue
			}
			st := aaStat{spread: spreadOf(values[e.Name]), Bound: e.Bound, Values: values[e.Name]}
			st.Within = st.IQRShare <= e.Bound
			rep.Workloads[name][e.Name] = st
			rep.WithinAll = rep.WithinAll && st.Within
			fmt.Printf("%-12s %-16s median %12.4f  q1 %12.4f  q3 %12.4f  iqr/median %6.3f  (max-min)/median %6.3f  bound %.2f  %s\n",
				name, e.Name, st.Median, st.Q1, st.Q3, st.IQRShare, st.RangeShare, e.Bound, map[bool]string{true: "ok", false: "EXCEEDS"}[st.Within])
		}
		if rep.Failed[name] > 0 {
			rep.WithinAll = false
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(errOut, "flexmark:", err)
		return 2
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("aa-seed%d.json", cfg.seed))
	if err := os.MkdirAll(cfg.outDir, 0o755); err == nil {
		err = os.WriteFile(path, append(out, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(errOut, "flexmark:", err)
		return 2
	}
	fmt.Println("wrote", path)
	if !rep.WithinAll {
		return 1
	}
	return 0
}

// runChild runs one workload once in a fresh process — so neither memory
// nor set-up bleeds from one run into the next — and parses its last line.
func runChild(self string, cfg config, workload string) (result, error) {
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", map[bool]string{true: "1", false: "0"}[cfg.trace],
		"-check=" + fmt.Sprint(cfg.check), "-flexserve", cfg.flexserve, "-out", cfg.outDir,
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = errOut
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("parsing result line: %w", err)
	}
	if res.Metrics == nil {
		return result{}, errors.New("result line has no metrics")
	}
	return res, nil
}
