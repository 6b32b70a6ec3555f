//go:build mutants

package flexpath

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A mutant is a committed defect, testdata/mutants/<name>.txt: comment
// lines starting with #, then
//
//	file: <path of the file to change, from the module root>
//	expect: <package> <test that must fail> ...
//	--- old
//	<text the file must contain exactly once>
//	--- new
//	<text that replaces it>
//
// There may be one expect line per package. An equivalent mutant, one
// no test can tell from the code, has an "equivalent: <why>" line in
// place of its expect lines: it is reported and not run.
type mutant struct {
	file       string
	pkgs       []string
	tests      []string
	equivalent string
	from, to   string
}

func readMutant(t *testing.T, path string) mutant {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, body, ok := strings.Cut(string(b), "--- old\n")
	from, to, ok2 := strings.Cut(body, "--- new\n")
	if !ok || !ok2 {
		t.Fatalf("%s: want a --- old and a --- new section", path)
	}
	m := mutant{from: from, to: to}
	for _, line := range strings.Split(head, "\n") {
		if f, ok := strings.CutPrefix(line, "file: "); ok {
			m.file = f
		} else if e, ok := strings.CutPrefix(line, "expect: "); ok {
			if f := strings.Fields(e); len(f) > 1 {
				m.pkgs, m.tests = append(m.pkgs, f[0]), append(m.tests, f[1:]...)
			}
		} else if why, ok := strings.CutPrefix(line, "equivalent: "); ok {
			m.equivalent = why
		}
	}
	if m.file == "" || (len(m.tests) == 0) == (m.equivalent == "") {
		t.Fatalf("%s: want a file: line and either expect: lines naming a package and its tests or an equivalent: line", path)
	}
	return m
}

// TestMutantsDie applies each committed mutant to a temporary copy of its
// file and runs the tests it expects to fail with the copy overlaid (go
// test -overlay), so the tree is never touched. A mutant dies when every
// one of those tests fails. One whose old text does not match exactly
// once, or that does not compile, fails the run too: neither is a kill.
// An equivalent mutant is checked to apply and then skipped.
//
//	go test -tags mutants -run TestMutantsDie .
func TestMutantsDie(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "mutants", "*.txt"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no mutants under testdata/mutants (%v)", err)
	}
	for _, path := range paths {
		m := readMutant(t, path)
		t.Run(strings.TrimSuffix(filepath.Base(path), ".txt"), func(t *testing.T) {
			src, err := os.ReadFile(m.file)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.from); n != 1 {
				t.Fatalf("the old text occurs %d times in %s, want once", n, m.file)
			}
			if m.equivalent != "" {
				t.Skipf("equivalent: %s", m.equivalent)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.from, m.to, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			abs, err := filepath.Abs(m.file)
			if err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, "overlay.json"), overlay, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			args := append([]string{"test", "-count=1", "-timeout=5m",
				"-overlay", filepath.Join(dir, "overlay.json"),
				"-run", "^(" + strings.Join(m.tests, "|") + ")$"}, m.pkgs...)
			out, err := exec.Command("go", args...).CombinedOutput()
			switch {
			case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
				t.Fatalf("the mutant does not compile:\n%s", out)
			case err == nil:
				t.Fatalf("the mutant survived %v", m.tests)
			}
			for _, name := range m.tests {
				if !bytes.Contains(out, []byte("--- FAIL: "+name+" ")) {
					t.Errorf("%s did not fail", name)
				}
			}
			if t.Failed() {
				t.Logf("go test output:\n%s", out)
			}
		})
	}
}
