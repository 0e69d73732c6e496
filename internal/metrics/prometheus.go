package metrics

// Prometheus text-format exposition for the registry. The registry's
// flat names follow two labeling conventions, both using a ":"
// separator after the family name:
//
//	server_sessions_total:sensors/a          → {dataset="sensors/a"}
//	replicator_sessions_total:peer=b,outcome=ok → {peer="b",outcome="ok"}
//
// The suffix is parsed as an explicit k=v list only when every
// comma-separated chunk contains "="; otherwise the whole suffix is the
// bare per-dataset form. Histograms render with their full cumulative
// `le` bucket boundaries (every configured bound plus +Inf, zero or
// not), `_sum` in seconds, and `_count` — so a scraper can recompute
// any quantile, which Snapshot's p50/p99 summary cannot offer.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// promSample is one rendered sample line's worth of state.
type promSample struct {
	labels string // rendered {k="v",...} or ""
	value  string
}

// promFamily groups a metric family for exposition.
type promFamily struct {
	name    string
	typ     string // counter | gauge | histogram
	samples []promSample
	hists   []promHist
}

type promHist struct {
	labels  string
	buckets []int64 // cumulative, aligned with histBuckets
	count   int64
	sumSec  float64
}

// splitName separates a registered name into its family and rendered
// label set following the ":" conventions above.
func splitName(name string) (family, labels string) {
	i := strings.IndexByte(name, ':')
	if i < 0 {
		return name, ""
	}
	family, suffix := name[:i], name[i+1:]
	chunks := strings.Split(suffix, ",")
	explicit := true
	for _, c := range chunks {
		if !strings.Contains(c, "=") {
			explicit = false
			break
		}
	}
	// %q escapes `"` and `\` — the characters the text format requires
	// escaped in label values.
	var parts []string
	if explicit {
		for _, c := range chunks {
			kv := strings.SplitN(c, "=", 2)
			parts = append(parts, fmt.Sprintf("%s=%q", sanitizeLabelName(kv[0]), kv[1]))
		}
	} else {
		parts = append(parts, fmt.Sprintf("dataset=%q", suffix))
	}
	return family, strings.Join(parts, ",")
}

var labelNameClean = regexp.MustCompile(`[^a-zA-Z0-9_]`)

// sanitizeLabelName coerces a label key into the Prometheus charset.
func sanitizeLabelName(s string) string {
	s = labelNameClean.ReplaceAllString(s, "_")
	if s == "" || (s[0] >= '0' && s[0] <= '9') {
		s = "_" + s
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, a
// `# TYPE` line per family, and histograms with full cumulative `le`
// buckets.
func (r *Registry) WritePrometheus(w io.Writer) error {
	fams := map[string]*promFamily{}
	get := func(name, typ string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, typ: typ}
			fams[name] = f
		}
		return f
	}
	if r != nil {
		r.mu.Lock()
		for name, c := range r.ctrs {
			fam, labels := splitName(name)
			f := get(fam, "counter")
			f.samples = append(f.samples, promSample{labels: labels, value: strconv.FormatInt(c.Value(), 10)})
		}
		for name, g := range r.gaugs {
			fam, labels := splitName(name)
			f := get(fam, "gauge")
			f.samples = append(f.samples, promSample{labels: labels, value: strconv.FormatInt(g.Value(), 10)})
		}
		for name, h := range r.hists {
			fam, labels := splitName(name)
			f := get(fam, "histogram")
			ph := promHist{labels: labels, count: h.count.Load(), sumSec: float64(h.sumNs.Load()) / 1e9}
			var cum int64
			for i := range histBuckets {
				cum += h.buckets[i].Load()
				ph.buckets = append(ph.buckets, cum)
			}
			f.hists = append(f.hists, ph)
		}
		r.mu.Unlock()
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, n := range names {
		f := fams[n]
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].labels < f.samples[j].labels })
		for _, s := range f.samples {
			if s.labels == "" {
				fmt.Fprintf(bw, "%s %s\n", f.name, s.value)
			} else {
				fmt.Fprintf(bw, "%s{%s} %s\n", f.name, s.labels, s.value)
			}
		}
		sort.Slice(f.hists, func(i, j int) bool { return f.hists[i].labels < f.hists[j].labels })
		for _, h := range f.hists {
			for i, ub := range histBuckets {
				le := "+Inf"
				if !math.IsInf(ub, 1) {
					le = strconv.FormatFloat(ub, 'g', -1, 64)
				}
				labels := fmt.Sprintf("le=%q", le)
				if h.labels != "" {
					labels = h.labels + "," + labels
				}
				fmt.Fprintf(bw, "%s_bucket{%s} %d\n", f.name, labels, h.buckets[i])
			}
			if h.labels == "" {
				fmt.Fprintf(bw, "%s_sum %g\n", f.name, h.sumSec)
				fmt.Fprintf(bw, "%s_count %d\n", f.name, h.count)
			} else {
				fmt.Fprintf(bw, "%s_sum{%s} %g\n", f.name, h.labels, h.sumSec)
				fmt.Fprintf(bw, "%s_count{%s} %d\n", f.name, h.labels, h.count)
			}
		}
	}
	return bw.Flush()
}

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// LintPrometheus is a promtool-style validity check over a text
// exposition: every non-comment line must be `name[{labels}] value`,
// every sample's family must have a preceding `# TYPE` declaration,
// names and label keys must match the Prometheus charset, and values
// must parse as floats. Returns the first violation.
func LintPrometheus(r io.Reader) error {
	types := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	sawSample := false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE comment: %q", lineNo, line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
				}
				if !promNameRe.MatchString(fields[2]) {
					return fmt.Errorf("line %d: invalid family name %q", lineNo, fields[2])
				}
				types[fields[2]] = fields[3]
			}
			continue
		}
		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if !promNameRe.MatchString(name) {
			return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name {
				if t, ok := types[base]; ok && (t == "histogram" || t == "summary") {
					family = base
				}
				break
			}
		}
		if _, ok := types[family]; !ok {
			return fmt.Errorf("line %d: sample %q has no TYPE declaration", lineNo, name)
		}
		for _, l := range labels {
			if !promLabelRe.MatchString(l) {
				return fmt.Errorf("line %d: invalid label name %q", lineNo, l)
			}
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("line %d: invalid sample value %q", lineNo, value)
		}
		sawSample = true
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawSample {
		return fmt.Errorf("exposition contains no samples")
	}
	return nil
}

// parseSampleLine splits `name[{labels}] value [timestamp]` returning
// the metric name, the label keys, and the value literal.
func parseSampleLine(line string) (name string, labelKeys []string, value string, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		rest = rest[i+1:]
		// Scan the label block respecting quoted values.
		var keys []string
		for {
			rest = strings.TrimLeft(rest, " ,")
			if rest == "" {
				return "", nil, "", fmt.Errorf("unterminated label block")
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return "", nil, "", fmt.Errorf("label without '=' near %q", rest)
			}
			keys = append(keys, rest[:eq])
			rest = rest[eq+1:]
			if rest == "" || rest[0] != '"' {
				return "", nil, "", fmt.Errorf("unquoted label value near %q", rest)
			}
			// Find the closing quote, honoring backslash escapes.
			j := 1
			for j < len(rest) {
				if rest[j] == '\\' {
					j += 2
					continue
				}
				if rest[j] == '"' {
					break
				}
				j++
			}
			if j >= len(rest) {
				return "", nil, "", fmt.Errorf("unterminated label value")
			}
			rest = rest[j+1:]
		}
		labelKeys = keys
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return "", nil, "", fmt.Errorf("sample line without value: %q", line)
		}
		name = rest[:sp]
		rest = rest[sp:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, "", fmt.Errorf("want `value [timestamp]`, got %q", strings.TrimSpace(rest))
	}
	return name, labelKeys, fields[0], nil
}
