package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"flexpath/internal/xmark"
)

// testScale shrinks every corpus so a whole run takes a fraction of a second.
const testScale = 0.03

var (
	flexserveOnce sync.Once
	flexservePath string
	flexserveErr  error
)

// flexserveBinary builds cmd/flexserve once per test process.
func flexserveBinary(t *testing.T) string {
	t.Helper()
	flexserveOnce.Do(func() {
		dir, err := os.MkdirTemp("", "flexmark-test-bin-")
		if err != nil {
			flexserveErr = err
			return
		}
		flexservePath = filepath.Join(dir, "flexserve")
		out, err := exec.Command("go", "build", "-o", flexservePath, "flexpath/cmd/flexserve").CombinedOutput()
		if err != nil {
			flexserveErr = fmt.Errorf("building flexserve: %v\n%s", err, out)
		}
	})
	if flexserveErr != nil {
		t.Fatal(flexserveErr)
	}
	return flexservePath
}

func TestMain(m *testing.M) {
	if os.Getenv("FLEXMARK_SANDBOX_HELPER") != "" {
		sandboxHelper()
		return
	}
	code := m.Run()
	if flexservePath != "" {
		os.RemoveAll(filepath.Dir(flexservePath))
	}
	os.Exit(code)
}

func testConfig(t *testing.T, workload string, seed int64) config {
	return config{
		workload: workload, seed: seed, seconds: 0.2, check: true, scale: testScale,
		flexserve: flexserveBinary(t), outDir: t.TempDir(),
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 12, 11, 30, 9}, 9.5, 21},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{1.5, 1.6, 1.4, 1.55, 1.45, 1.52, 1.48, 1.7, 1.3, 1.51}, 1.4375, 1.5625},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	s := spreadOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.Median != 5.5 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("spread = %+v", s)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(s.IQRShare-want) > 1e-12 {
		t.Errorf("IQRShare = %v, want %v", s.IQRShare, want)
	}
	if want := 9 / 5.5; math.Abs(s.RangeShare-want) > 1e-12 {
		t.Errorf("RangeShare = %v, want %v", s.RangeShare, want)
	}
}

// inputs renders everything a seed determines before a run starts: corpus
// bytes and the op sequences of all four workloads.
func inputs(t *testing.T, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := xmark.Generate(&b, xmark.Config{TargetBytes: 32 << 10, Seed: memberSeed(seed, i)}); err != nil {
			t.Fatal(err)
		}
	}
	r := stream(seed, "serve_mixed/articles")
	for i := 0; i < 3; i++ {
		b.Write(genArticle(r, fmt.Sprint("a", i), 8<<10))
	}
	dp := &docPaper{cfg: config{seed: seed, scale: testScale}}
	if err := dp.setup(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		fmt.Fprintln(&b, dp.roundOrder(round))
	}
	fq := newFreshQueries(seed)
	for i := 0; i < 40; i++ {
		fmt.Fprintln(&b, fq.next(adhocShapes[i%len(adhocShapes)]))
	}
	fmt.Fprintln(&b, coldQueries(seed))
	mut := stream(seed, "serve_mixed/mutations")
	for i := 0; i < 40; i++ {
		fmt.Fprint(&b, mut.Intn(10), " ")
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := inputs(t, 5), inputs(t, 5), inputs(t, 6)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same inputs")
	}
}

func TestFreshQueriesNeverRepeat(t *testing.T) {
	fq := newFreshQueries(1)
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		q := fq.next(adhocShapes[i%len(adhocShapes)])
		if seen[q] {
			t.Fatalf("query %d repeats: %s", i, q)
		}
		seen[q] = true
	}
}

func endToEndNames(t *testing.T) (names []string, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	if !reflect.DeepEqual(ws, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", ws, workloadNames)
	}
	perLayer = map[string]string{}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	return names, perLayer
}

// Every workload runs end to end at test scale, reports exactly the metrics
// BENCHMARK.json names, none of them zero, and fails no op.
func TestEndToEndRuns(t *testing.T) {
	want, _ := endToEndNames(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			sb := &sandbox{}
			defer sb.cleanup()
			res, rec, err := runOnce(testConfig(t, name, 3), sb)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := res.Metrics[m]; !ok || !(v.Value > 0) {
					t.Errorf("metric %s = %+v, want present and positive", m, v)
				}
			}
			if rec.Env.GoVersion == "" || rec.Env.NumCPU == 0 || len(rec.SetupS) != setupRepeats {
				t.Errorf("incomplete run record: %+v", rec)
			}
		})
	}
}

// The traced run reports every per-layer metric BENCHMARK.json names, writes
// its spans, and its exact-count metrics are equal across two runs of one
// seed.
func TestTracedRunsRepeatExactly(t *testing.T) {
	_, perLayer := endToEndNames(t)
	if !reflect.DeepEqual(perLayer, perLayerUnits) {
		t.Errorf("BENCHMARK.json per_layer and perLayerUnits differ:\n%v\n%v", perLayer, perLayerUnits)
	}
	// doc_paper is left to the test below: its ladder builds XQ3's
	// relaxation chain two dozen times, which takes seconds at any scale.
	exact := map[string][]string{
		"coll_adhoc": {"exec.tuples_per_answer", "topk.relaxations_per_search", "topk.restarts_per_search", "exec.pruned_share"},
		"coll_cold":  {"residency.faults_per_search", "residency.evictions_per_search", "exec.tuples_per_answer"},
	}
	for name, metrics := range exact {
		t.Run(name, func(t *testing.T) {
			var runs [2]result
			for i := range runs {
				cfg := testConfig(t, name, 4)
				cfg.trace = true
				sb := &sandbox{}
				res, _, err := runOnce(cfg, sb)
				sb.cleanup()
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 {
					t.Errorf("%d ops failed", res.Failed)
				}
				if len(res.Metrics) != len(perLayerUnits) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayerUnits))
				}
				if fi, err := os.Stat(filepath.Join(cfg.outDir, name+".spans.json")); err != nil || fi.Size() == 0 {
					t.Errorf("no spans written: %v", err)
				}
				runs[i] = res
			}
			for _, m := range metrics {
				if a, b := runs[0].Metrics[m].Value, runs[1].Metrics[m].Value; a != b {
					t.Errorf("%s: %v then %v, want equal", m, a, b)
				}
			}
			if name == "coll_cold" {
				members := float64(scaled(coldMembers, testScale, 4))
				if got := runs[0].Metrics["residency.faults_per_search"].Value; got != members {
					t.Errorf("faults per search = %v, want every one of %v members", got, members)
				}
			}
		})
	}
}

// On doc_paper the ladder must add up to what it decomposes: its
// Document.Search spans against the untraced latency of the same operations.
func TestDocPaperLadderAddsUp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds XQ3's relaxation chain two dozen times")
	}
	cfg := testConfig(t, "doc_paper", 4)
	cfg.trace = true
	sb := &sandbox{}
	defer sb.cleanup()
	res, rec, err := runOnce(cfg, sb)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || len(res.Metrics) != len(perLayerUnits) {
		t.Errorf("failed=%d, %d metrics", res.Failed, len(res.Metrics))
	}
	var ladder, untraced, ratio float64
	var n int
	if _, err := fmt.Sscanf(rec.LadderCheck, "ladder document spans %f ms vs untraced medians %f ms over %d combinations: ratio %f",
		&ladder, &untraced, &n, &ratio); err != nil {
		t.Fatalf("ladder check %q: %v", rec.LadderCheck, err)
	}
	// Sub-millisecond operations at test scale are mostly timer noise, so
	// the band here is wide; at full scale the ratio is within 10% of 1.
	if n != len(paperQueries)*len(paperKs)*len(paperAlgos) || ratio < 0.5 || ratio > 2 {
		t.Errorf("ladder check: %s", rec.LadderCheck)
	}
}

// A wrong answer must become a failed op, not a latency sample.
func TestWrongAnswerFailsTheOp(t *testing.T) {
	w := &docPaper{cfg: config{seed: 1, scale: testScale, check: true}}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	for k := range w.ref {
		w.ref[k]++ // corrupt every reference digest
	}
	var rec recorder
	w.measure(time.Millisecond, &rec, nil)
	if len(rec.searches) == 0 || countFailed(rec.searches) != len(rec.searches) {
		t.Fatalf("%d of %d searches failed, want all", countFailed(rec.searches), len(rec.searches))
	}
	if n := len(okMillis(rec.searches)); n != 0 {
		t.Errorf("%d latency samples from wrong answers", n)
	}
}

func alive(pid int) bool {
	// A reaped process has no /proc entry; a zombie still does, with state Z.
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	return len(f) > 0 && f[0] != "Z"
}

// On a failed run cleanup must reap the child and remove the temp dirs.
func TestSandboxCleansUpAfterFailure(t *testing.T) {
	sb := &sandbox{}
	dir, err := sb.tempDir("flexmark-test-")
	if err != nil {
		t.Fatal(err)
	}
	c, err := sb.start("sleep", "60")
	if err != nil {
		t.Fatal(err)
	}
	// A server that can never become healthy: set-up fails, cleanup runs.
	if _, _, err := sb.startServer("false"); err == nil {
		t.Error("startServer(false) succeeded")
	}
	sb.cleanup()
	if alive(c.pid()) {
		t.Errorf("child %d survived cleanup", c.pid())
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("temp dir survived cleanup: %v", err)
	}
	sb.cleanup() // idempotent
}

// sandboxHelper is the body of the process TestSandboxCleansUpOnSIGINT
// signals: it starts a child and a temp dir under a guard, reports them and
// waits to be interrupted.
func sandboxHelper() {
	sb := &sandbox{}
	sb.guard(time.Minute)
	dir, err := sb.tempDir("flexmark-test-")
	if err != nil {
		os.Exit(2)
	}
	c, err := sb.start("sleep", "60")
	if err != nil {
		os.Exit(2)
	}
	fmt.Println(c.pid(), dir)
	time.Sleep(time.Minute)
}

func TestSandboxCleansUpOnSIGINT(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), "FLEXMARK_SANDBOX_HELPER=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("helper never reported its child: %v", err)
	}
	f := strings.Fields(line)
	pid, err := strconv.Atoi(f[0])
	if err != nil || len(f) != 2 {
		t.Fatalf("helper printed %q", line)
	}
	if !alive(pid) {
		t.Fatal("helper's child is not running")
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 130 {
		t.Errorf("helper exit: %v, want status 130", err)
	}
	if alive(pid) {
		t.Errorf("child %d survived SIGINT", pid)
		syscall.Kill(pid, syscall.SIGKILL)
	}
	if _, err := os.Stat(f[1]); !os.IsNotExist(err) {
		t.Errorf("temp dir %s survived SIGINT: %v", f[1], err)
	}
}
