// Command flexpath runs flexible top-K queries over an XML document from
// the command line.
//
// Usage:
//
//	flexpath -doc data.xml -query '//item[./description/parlist]' -k 10
//	flexpath -doc data.xml -query '...' -algo dpo -scheme combined -metrics
//	flexpath -doc data.xml -query '...' -explain      # relaxation chain
//	flexpath -doc data.xml -query '...' -plan         # evaluation plan
//	flexpath -doc data.xml -query '...' -json         # machine-readable
//	flexpath -doc data.xml -i                         # interactive shell
//
// -doc accepts XML files and FXP3 snapshots produced by -save-fxp3 or
// xmarkgen -fxp3 (detected by magic; an FXP2 snapshot of an older release
// is refused: regenerate it from XML).
//
// -save-fxp3 PATH converts the loaded document into an FXP3 snapshot —
// the mmap-friendly layout flexserve can serve cold — and exits:
//
//	flexpath -doc data.xml -save-fxp3 data.fxp3
//
// The interactive shell accepts a query per line plus commands:
//
//	\k N           set top-K
//	\algo NAME     auto | dpo | sso | hybrid
//	\scheme NAME   structure-first | keyword-first | combined
//	\explain Q     print the relaxation chain of Q
//	\plan Q        print the evaluation plan of Q
//	\q             quit
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"flexpath"
)

type session struct {
	doc     *flexpath.Document
	k       int
	algo    flexpath.Algorithm
	scheme  flexpath.Scheme
	snippet int
	why     bool
	jsonOut bool
	metrics bool
	out     io.Writer
	errOut  io.Writer
}

func main() {
	docPath := flag.String("doc", "", "XML document to query (required)")
	queryStr := flag.String("query", "", "tree pattern query")
	k := flag.Int("k", 10, "number of answers")
	algoStr := flag.String("algo", "auto", "algorithm: auto (DPO, or Hybrid for a keyword-first contains query), dpo, sso, or hybrid")
	schemeStr := flag.String("scheme", "structure-first", "ranking scheme: structure-first, keyword-first, combined")
	explain := flag.Bool("explain", false, "print the relaxation chain instead of searching")
	plan := flag.Bool("plan", false, "print the evaluation plan instead of searching")
	analyze := flag.Bool("analyze", false, "execute the plan and print a per-step trace")
	metrics := flag.Bool("metrics", false, "print evaluation work counters")
	snippet := flag.Int("snippet", 0, "print up to N characters of each answer's text")
	jsonOut := flag.Bool("json", false, "emit answers as JSON")
	why := flag.Bool("why", false, "explain which relaxations each answer needed")
	minimize := flag.Bool("minimize", false, "print the minimal equivalent query and exit (no document needed)")
	saveFXP3 := flag.String("save-fxp3", "", "write the loaded document as an FXP3 snapshot to this path and exit")
	interactive := flag.Bool("i", false, "interactive query shell")
	flag.Parse()

	if *minimize {
		if *queryStr == "" {
			flag.Usage()
			os.Exit(2)
		}
		q, err := flexpath.ParseQuery(*queryStr)
		dieIf(err)
		m, err := q.Minimize()
		dieIf(err)
		fmt.Println(m)
		return
	}

	if *docPath == "" || (*queryStr == "" && !*interactive && *saveFXP3 == "") {
		flag.Usage()
		os.Exit(2)
	}
	algo, err := flexpath.ParseAlgorithm(*algoStr)
	dieIf(err)
	scheme, err := flexpath.ParseScheme(*schemeStr)
	dieIf(err)

	start := time.Now()
	doc, err := flexpath.LoadAuto(*docPath)
	dieIf(err)
	fmt.Fprintf(os.Stderr, "loaded %d elements in %v\n", doc.Nodes(), time.Since(start).Round(time.Millisecond))

	if *saveFXP3 != "" {
		start = time.Now()
		dieIf(doc.SaveFXP3SnapshotFile(*saveFXP3))
		fi, err := os.Stat(*saveFXP3)
		dieIf(err)
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes) in %v\n", *saveFXP3, fi.Size(), time.Since(start).Round(time.Millisecond))
		if *queryStr == "" && !*interactive {
			return
		}
	}

	s := &session{
		doc: doc, k: *k, algo: algo, scheme: scheme,
		snippet: *snippet, why: *why, jsonOut: *jsonOut, metrics: *metrics,
		out: os.Stdout, errOut: os.Stderr,
	}

	if *interactive {
		s.repl(os.Stdin)
		return
	}

	switch {
	case *analyze:
		dieIf(s.analyze(*queryStr))
	case *plan:
		dieIf(s.plan(*queryStr))
	case *explain:
		dieIf(s.explain(*queryStr))
	default:
		dieIf(s.search(*queryStr))
	}
}

func (s *session) search(src string) error {
	q, err := flexpath.ParseQuery(src)
	if err != nil {
		return err
	}
	var m flexpath.Metrics
	opts := flexpath.SearchOptions{
		K: s.k, Algorithm: s.algo, Scheme: s.scheme, Metrics: &m,
	}
	start := time.Now()
	answers, err := s.doc.Search(q, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if s.jsonOut {
		return s.printJSON(answers, elapsed, m)
	}
	for i, a := range answers {
		fmt.Fprintf(s.out, "%3d. %-40s ss=%.3f ks=%.3f relax=%d", i+1, a.Path, a.Structural, a.Keyword, a.Relaxations)
		if a.ID != "" {
			fmt.Fprintf(s.out, " id=%s", a.ID)
		}
		fmt.Fprintln(s.out)
		if s.why {
			for _, why := range a.Relaxed {
				fmt.Fprintf(s.out, "     relaxed: %s\n", why)
			}
		}
		if s.snippet > 0 {
			fmt.Fprintf(s.out, "     %s\n", a.Snippet(s.snippet))
		}
	}
	algoName := s.algo.String()
	if s.algo == flexpath.Auto && m.Algorithm != "" {
		algoName = "auto→" + m.Algorithm
	}
	fmt.Fprintf(s.errOut, "%d answers in %v (%s, %s)\n", len(answers), elapsed.Round(time.Microsecond), algoName, s.scheme)
	if s.metrics {
		fmt.Fprintf(s.errOut, "metrics: %+v\n", m)
	}
	return nil
}

// jsonAnswer is the machine-readable answer shape.
type jsonAnswer struct {
	Rank        int      `json:"rank"`
	Path        string   `json:"path"`
	ID          string   `json:"id,omitempty"`
	Structural  float64  `json:"structural"`
	Keyword     float64  `json:"keyword"`
	Relaxations int      `json:"relaxations"`
	Relaxed     []string `json:"relaxed,omitempty"`
	Snippet     string   `json:"snippet,omitempty"`
}

type jsonResult struct {
	Answers   []jsonAnswer      `json:"answers"`
	ElapsedMS float64           `json:"elapsed_ms"`
	Algorithm string            `json:"algorithm"`
	Scheme    string            `json:"scheme"`
	Metrics   *flexpath.Metrics `json:"metrics,omitempty"`
}

func (s *session) printJSON(answers []flexpath.Answer, elapsed time.Duration, m flexpath.Metrics) error {
	res := jsonResult{
		ElapsedMS: float64(elapsed) / 1e6,
		Algorithm: s.algo.String(),
		Scheme:    s.scheme.String(),
	}
	if s.algo == flexpath.Auto && m.Algorithm != "" {
		// Name the algorithm Auto ran.
		res.Algorithm = m.Algorithm
	}
	if s.metrics {
		res.Metrics = &m
	}
	for i, a := range answers {
		ja := jsonAnswer{
			Rank: i + 1, Path: a.Path, ID: a.ID,
			Structural: a.Structural, Keyword: a.Keyword,
			Relaxations: a.Relaxations, Relaxed: a.Relaxed,
		}
		if s.snippet > 0 {
			ja.Snippet = a.Snippet(s.snippet)
		}
		res.Answers = append(res.Answers, ja)
	}
	enc := json.NewEncoder(s.out)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

func (s *session) explain(src string) error {
	q, err := flexpath.ParseQuery(src)
	if err != nil {
		return err
	}
	steps, err := s.doc.Relaxations(context.Background(), q, flexpath.SearchOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "relaxation chain for %s\n", q)
	for _, st := range steps {
		fmt.Fprintf(s.out, "%3d. %-50s penalty=%.4f score=%.4f\n", st.Level, st.Description, st.Penalty, st.Score)
		fmt.Fprintf(s.out, "     %s\n", st.Query)
	}
	return nil
}

func (s *session) plan(src string) error {
	q, err := flexpath.ParseQuery(src)
	if err != nil {
		return err
	}
	out, err := s.doc.ExplainPlan(context.Background(), q, flexpath.SearchOptions{K: s.k, Algorithm: s.algo, Scheme: s.scheme})
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, out)
	return nil
}

func (s *session) analyze(src string) error {
	q, err := flexpath.ParseQuery(src)
	if err != nil {
		return err
	}
	out, err := s.doc.AnalyzePlan(context.Background(), q, flexpath.SearchOptions{K: s.k, Scheme: s.scheme})
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, out)
	return nil
}

// repl runs the interactive shell, reading one query or \command per
// line.
func (s *session) repl(in io.Reader) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprintf(s.errOut, "flexpath shell — enter a query, \\h for help\n")
	prompt := func() { fmt.Fprintf(s.errOut, "flexpath[k=%d %s %s]> ", s.k, s.algo, s.scheme) }
	prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\q`, line == `\quit`:
			return
		case line == `\h`, line == `\help`:
			fmt.Fprintln(s.out, `commands: \k N, \algo NAME, \scheme NAME, \explain Q, \plan Q, \metrics, \json, \q`)
		case line == `\metrics`:
			s.metrics = !s.metrics
			fmt.Fprintf(s.errOut, "metrics %v\n", s.metrics)
		case line == `\json`:
			s.jsonOut = !s.jsonOut
			fmt.Fprintf(s.errOut, "json %v\n", s.jsonOut)
		case strings.HasPrefix(line, `\k `):
			if n, err := strconv.Atoi(strings.TrimSpace(line[3:])); err == nil && n > 0 {
				s.k = n
			} else {
				fmt.Fprintln(s.errOut, "usage: \\k N")
			}
		case strings.HasPrefix(line, `\algo `):
			if a, err := flexpath.ParseAlgorithm(strings.TrimSpace(line[6:])); err == nil {
				s.algo = a
			} else {
				fmt.Fprintln(s.errOut, err)
			}
		case strings.HasPrefix(line, `\scheme `):
			if sc2, err := flexpath.ParseScheme(strings.TrimSpace(line[8:])); err == nil {
				s.scheme = sc2
			} else {
				fmt.Fprintln(s.errOut, err)
			}
		case strings.HasPrefix(line, `\explain `):
			if err := s.explain(strings.TrimSpace(line[9:])); err != nil {
				fmt.Fprintln(s.errOut, err)
			}
		case strings.HasPrefix(line, `\plan `):
			if err := s.plan(strings.TrimSpace(line[6:])); err != nil {
				fmt.Fprintln(s.errOut, err)
			}
		case strings.HasPrefix(line, `\`):
			fmt.Fprintf(s.errOut, "unknown command %s (\\h for help)\n", line)
		default:
			if err := s.search(line); err != nil {
				fmt.Fprintln(s.errOut, err)
			}
		}
		prompt()
	}
}

func dieIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexpath:", err)
		os.Exit(1)
	}
}
