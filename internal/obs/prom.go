package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) rendering. Only the
// features the /metrics endpoint needs are implemented: HELP/TYPE
// headers, counters, gauges and cumulative histograms with le labels.

// PromContentType is the Content-Type of the rendered exposition.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// labelEscaper escapes a label value per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// Sample is one sample of a metric family: its label name/value pairs
// and its value. An integer value prints as an integer, a float64 as %g.
type Sample struct {
	Labels []string // name, value, name, value, ...
	Value  any
}

// WriteFamily renders one metric family: its HELP and TYPE lines, then
// each sample. kind is "counter", "gauge" or "histogram" (whose series
// follow through WriteHistogram). Every family in the system renders
// through it, so label values are escaped once, by the exposition rules.
func WriteFamily(w io.Writer, name, kind, help string, samples ...Sample) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	for _, s := range samples {
		writeSample(w, name, s.Value, s.Labels...)
	}
}

// writeSample renders one sample line.
func writeSample(w io.Writer, name string, value any, labels ...string) {
	fmt.Fprint(w, name)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(w, `%s%s="%s"`, sep, labels[i], labelEscaper.Replace(labels[i+1]))
	}
	if len(labels) > 0 {
		fmt.Fprint(w, "}")
	}
	fmt.Fprintf(w, " %v\n", value)
}

// promBound renders a bucket bound in seconds ("+Inf" for overflow).
func promBound(i int) string {
	b := BucketBound(i)
	if b < 0 {
		return "+Inf"
	}
	return strconv.FormatFloat(float64(b)/1e9, 'g', -1, 64)
}

// WriteHistogram renders one histogram series, of a family WriteFamily
// announced, with the given label pair applied to every sample. Serving
// layers that keep their own Histogram families (flexrouter's per-shard
// latency) render them through this so every exposition in the system
// shares one bucket geometry.
func WriteHistogram(w io.Writer, name, labelKey, labelVal string, s HistogramSnapshot) {
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		writeSample(w, name+"_bucket", cum, labelKey, labelVal, "le", promBound(i))
	}
	writeSample(w, name+"_sum", s.Sum.Seconds(), labelKey, labelVal)
	writeSample(w, name+"_count", s.Count, labelKey, labelVal)
}

// WritePrometheus renders the registry's query counters and latency
// histograms in the Prometheus text exposition format. Serving
// callers append their own families (e.g. cache counters) after it.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	var queries []Sample
	for _, qc := range r.QueryCounts() {
		queries = append(queries, Sample{Labels: []string{"algo", qc.Algo, "scheme", qc.Scheme, "status", qc.Status}, Value: qc.Count})
	}
	WriteFamily(w, "flexpath_queries_total", "counter",
		"Finished search queries by algorithm, ranking scheme and terminal status.", queries...)

	WriteFamily(w, "flexpath_query_duration_seconds", "histogram", "End-to-end search latency by algorithm.")
	algos, hists := r.LatencyByAlgo()
	for i, a := range algos {
		WriteHistogram(w, "flexpath_query_duration_seconds", "algo", a, hists[i])
	}

	WriteFamily(w, "flexpath_stage_duration_seconds", "histogram",
		"Per-stage evaluation time (parse, chain, join, merge, cache, plan).")
	for i, s := range r.StageLatency() {
		WriteHistogram(w, "flexpath_stage_duration_seconds", "stage", Stage(i).String(), s)
	}
}

// ValidateExposition checks that data is well-formed Prometheus text
// exposition format: every non-comment line is `name{labels} value`,
// label syntax is sound, values parse as floats, and every sample
// belongs to a family announced by a # TYPE line. It is the assertion
// behind the CI smoke test (and cmd/promcheck); it is deliberately a
// validator, not a full parser.
func ValidateExposition(data []byte) error {
	typed := make(map[string]string)
	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		name, rest, err := splitMetricName(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		if strings.HasPrefix(rest, "{") {
			end, err := scanLabels(rest)
			if err != nil {
				return fmt.Errorf("line %d: %v", lineNo, err)
			}
			rest = rest[end:]
		}
		rest = strings.TrimLeft(rest, " ")
		value := rest
		if i := strings.IndexByte(rest, ' '); i >= 0 {
			value = rest[:i]
			if _, err := strconv.ParseInt(strings.TrimSpace(rest[i+1:]), 10, 64); err != nil {
				return fmt.Errorf("line %d: bad timestamp %q", lineNo, rest[i+1:])
			}
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("line %d: bad sample value %q", lineNo, value)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && typed[base] == "histogram" {
				family = base
				break
			}
		}
		if _, ok := typed[family]; !ok {
			return fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, name)
		}
	}
	if len(typed) == 0 {
		return fmt.Errorf("no metric families found")
	}
	return nil
}

// splitMetricName splits off a leading metric name, validating its
// character set.
func splitMetricName(line string) (name, rest string, err error) {
	i := 0
	for i < len(line) {
		c := line[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
			(i > 0 && c >= '0' && c <= '9') {
			i++
			continue
		}
		break
	}
	if i == 0 {
		return "", "", fmt.Errorf("missing metric name in %q", line)
	}
	return line[:i], line[i:], nil
}

// scanLabels validates a {k="v",...} label block and returns the index
// just past the closing brace.
func scanLabels(s string) (int, error) {
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(s) && (s[i] >= 'a' && s[i] <= 'z' || s[i] >= 'A' && s[i] <= 'Z' ||
			s[i] == '_' || (i > start && s[i] >= '0' && s[i] <= '9')) {
			i++
		}
		if i == start {
			return 0, fmt.Errorf("missing label name at %q", s[i:])
		}
		if i >= len(s) || s[i] != '=' {
			return 0, fmt.Errorf("missing '=' in label at %q", s[start:])
		}
		i++
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label value must be quoted at %q", s[start:])
		}
		i++
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label value")
		}
		i++ // past closing quote
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// StageNames returns the stage labels in declaration order; serving
// layers use it to render per-stage JSON deterministically.
func StageNames() []string {
	names := make([]string, NumStages)
	for i := range names {
		names[i] = Stage(i).String()
	}
	return names
}
