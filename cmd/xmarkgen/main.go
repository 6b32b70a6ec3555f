// Command xmarkgen generates XMark-style auction XML documents, the
// dataset of the FleXPath paper's experiments.
//
// Usage:
//
//	xmarkgen -size 10MB -seed 42 -o auction.xml
//	xmarkgen -size 10MB -seed 42 -fxp3 -o auction.fxp3
//
// Sizes accept B/KB/MB/GB suffixes (powers of two).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"flexpath"
	"flexpath/internal/xmark"
)

func main() {
	size := flag.String("size", "1MB", "approximate document size (e.g. 512KB, 10MB)")
	seed := flag.Int64("seed", 42, "generator seed; equal seeds give identical documents")
	out := flag.String("o", "", "output file (default stdout)")
	fxp3 := flag.Bool("fxp3", false, "emit an FXP3 snapshot (tree + inverted index + statistics, mmap-able) instead of XML")
	flag.Parse()

	bytes, err := parseSize(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmarkgen:", err)
		os.Exit(2)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xmarkgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	cfg := xmark.Config{TargetBytes: bytes, Seed: *seed}
	if *fxp3 {
		tree, err := xmark.Build(cfg)
		if err == nil {
			err = flexpath.NewDocument(tree).SaveFXP3Snapshot(w)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "xmarkgen:", err)
			os.Exit(1)
		}
		return
	}
	if err := xmark.Generate(w, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "xmarkgen:", err)
		os.Exit(1)
	}
}

func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "GB"):
		mult, s = 1<<30, s[:len(s)-2]
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, s[:len(s)-2]
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, s[:len(s)-2]
	case strings.HasSuffix(s, "B"):
		s = s[:len(s)-1]
	}
	n, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return int64(n * float64(mult)), nil
}
