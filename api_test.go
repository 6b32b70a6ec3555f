package flexpath

import (
	"bytes"
	"go/ast"
	"go/doc"
	"go/format"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// goldenAPI is the root package's exported API, one declaration per
// entry, so a change to the public surface shows in review as a diff of
// this file.
const goldenAPI = "testdata/api.txt"

// TestAPISurface renders the root package's exported declarations —
// go/doc picks them, go/printer prints each without comments or bodies —
// sorted, and compares them with goldenAPI. Nothing goes through
// go/doc's text formatting, which differs between Go releases. After a
// deliberate change to the surface, regenerate the file with
// go test -run TestAPISurface -update-golden .
func TestAPISurface(t *testing.T) {
	got := renderAPI(t)
	if *updateGolden {
		if err := os.WriteFile(goldenAPI, []byte(strings.Join(got, "\n\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenAPI)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n\n")
	for _, d := range got {
		if !slices.Contains(want, d) {
			t.Errorf("exported but not in %s:\n%s", goldenAPI, d)
		}
	}
	for _, d := range want {
		if !slices.Contains(got, d) {
			t.Errorf("in %s but not exported:\n%s", goldenAPI, d)
		}
	}
}

// renderAPI returns the package's exported declarations, each printed
// on its own without blank lines, in sorted order.
func renderAPI(t *testing.T) []string {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "flexpath")
	if err != nil {
		t.Fatal(err)
	}
	var decls []ast.Decl
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			decls = append(decls, v.Decl)
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			f.Decl.Body = nil
			decls = append(decls, f.Decl)
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		decls = append(decls, typ.Decl)
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	cfg := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}
	out := make([]string, len(decls))
	for i, d := range decls {
		var b bytes.Buffer
		if err := cfg.Fprint(&b, fset, d); err != nil {
			t.Fatal(err)
		}
		// Blank lines are where the source had comments. Dropping them
		// keeps one blank line as the separator between entries, and
		// formatting again aligns the fields they had split.
		src, err := format.Source([]byte(strings.ReplaceAll(b.String(), "\n\n", "\n")))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = strings.TrimSpace(string(src))
	}
	slices.Sort(out)
	return out
}
