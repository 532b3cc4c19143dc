package obs

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestEscapeLabel(t *testing.T) {
	cases := map[string]string{
		"plain":         "plain",
		"café":          "café",
		`back\slash`:    `back\\slash`,
		`quo"te`:        `quo\"te`,
		"new\nline":     `new\nline`,
		"tab\there":     "tab\there",
		`all"三\` + "\n": `all\"三\\\n`,
	}
	for in, want := range cases {
		if got := string(appendEscaped(nil, in)); got != want {
			t.Fatalf("appendEscaped(%q) = %q, want %q", in, got, want)
		}
	}
}

// promRow is one parsed sample row.
type promRow struct {
	name     string
	labels   map[string]string
	value    float64
	exemplar string
}

// parsePromRow parses name{label="value",...} value [# exemplar],
// accepting exactly the three label escapes the text format defines.
func parsePromRow(line string) (promRow, error) {
	r := promRow{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return r, fmt.Errorf("no name/value in %q", line)
	}
	r.name, line = line[:i], line[i:]
	if line[0] == '{' {
		line = line[1:]
		for !strings.HasPrefix(line, "}") {
			eq := strings.Index(line, `="`)
			if eq <= 0 {
				return r, fmt.Errorf("malformed label in %q", line)
			}
			name := line[:eq]
			line = line[eq+2:]
			var val strings.Builder
			for {
				if line == "" {
					return r, fmt.Errorf("unterminated label %s", name)
				}
				c := line[0]
				line = line[1:]
				if c == '"' {
					break
				}
				if c == '\\' {
					if line == "" {
						return r, fmt.Errorf("dangling escape in label %s", name)
					}
					switch line[0] {
					case '\\', '"':
						val.WriteByte(line[0])
					case 'n':
						val.WriteByte('\n')
					default:
						return r, fmt.Errorf("illegal escape \\%c in label %s", line[0], name)
					}
					line = line[1:]
					continue
				}
				val.WriteByte(c)
			}
			if _, dup := r.labels[name]; dup {
				return r, fmt.Errorf("label %s repeated", name)
			}
			r.labels[name] = val.String()
			line = strings.TrimPrefix(line, ",")
		}
		line = line[1:]
	}
	line, ok := strings.CutPrefix(line, " ")
	if !ok {
		return r, fmt.Errorf("no value separator")
	}
	valStr, ex, _ := strings.Cut(line, " # ")
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return r, err
	}
	r.value, r.exemplar = v, ex
	return r, nil
}

// lintExposition applies the /metrics conformance rules: HELP then TYPE
// for every family, no family declared twice, every sample under a
// declared family, histogram buckets cumulative with le="+Inf" equal to
// _count. It returns the parsed rows.
func lintExposition(t *testing.T, text string) []promRow {
	t.Helper()
	types := map[string]string{}
	var current string
	var rows []promRow
	type series struct {
		prev, inf, count float64
		infSeen, counted bool
	}
	hist := map[string]*series{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if _, dup := types[name]; dup {
				t.Fatalf("family %s declared twice", name)
			}
			types[name], current = "", name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if name != current {
				t.Fatalf("TYPE %s does not follow its HELP", name)
			}
			types[name] = typ
			continue
		}
		r, err := parsePromRow(line)
		if err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		rows = append(rows, r)
		base := r.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(r.name, suffix); ok && types[b] == TypeHistogram {
				base = b
			}
		}
		typ, declared := types[base]
		if !declared || typ == "" {
			t.Fatalf("sample %s without HELP+TYPE", r.name)
		}
		if typ != TypeHistogram {
			continue
		}
		var key strings.Builder
		key.WriteString(base)
		for _, k := range SortedKeys(r.labels) {
			if k != "le" {
				fmt.Fprintf(&key, "|%s=%q", k, r.labels[k])
			}
		}
		s := hist[key.String()]
		if s == nil {
			s = &series{}
			hist[key.String()] = s
		}
		switch {
		case strings.HasSuffix(r.name, "_bucket"):
			if r.value < s.prev {
				t.Fatalf("buckets not cumulative at %q", line)
			}
			s.prev = r.value
			if r.labels["le"] == "+Inf" {
				s.inf, s.infSeen = r.value, true
			}
		case strings.HasSuffix(r.name, "_count"):
			s.count, s.counted = r.value, true
		}
	}
	for key, s := range hist {
		if !s.infSeen || !s.counted || s.inf != s.count {
			t.Errorf("series %s: +Inf %g (seen %v) vs _count %g (seen %v)", key, s.inf, s.infSeen, s.count, s.counted)
		}
	}
	return rows
}

// TestWriteFamiliesHostileLabels passes a quote, a backslash, a newline,
// a tab and non-ASCII text through a counter family and a histogram
// family (exemplar included): the output must lint clean and every
// label value must parse back to exactly what went in.
func TestWriteFamiliesHostileLabels(t *testing.T) {
	hostile := []string{`a"b`, `back\slash`, "new\nline", "tab\there", "café 三", "\"\\\n\t"}
	var h Histogram
	h.Observe(3 * time.Millisecond)
	h.Observe(time.Second)
	counter := Family{Name: "x_total", Type: TypeCounter, Help: "Hostile counter."}
	histo := Family{Name: "x_seconds", Type: TypeHistogram, Help: "Hostile histogram."}
	for _, v := range hostile {
		counter.Samples = append(counter.Samples, Sample{Labels: []string{"path", v}, Value: 7})
		s := histData(&h).Sample("path", v)
		s.Hist.Exemplars = make([]Exemplar, NumBuckets)
		s.Hist.Exemplars[bucketOf(time.Second)] = Exemplar{TraceID: v, Value: 1}
		histo.Samples = append(histo.Samples, s)
	}
	var b strings.Builder
	if err := WriteFamilies(&b, []Family{counter, histo}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, r := range lintExposition(t, b.String()) {
		v, ok := r.labels["path"]
		if !ok {
			t.Fatalf("row %s lost its path label", r.name)
		}
		seen[v]++
		if r.exemplar != "" {
			ex, err := parsePromRow("x" + r.exemplar)
			if err != nil || ex.labels["trace_id"] != v {
				t.Fatalf("exemplar %q does not round-trip %q: %v", r.exemplar, v, err)
			}
		}
	}
	// One counter row plus NumBuckets buckets, _sum and _count per value.
	for _, v := range hostile {
		if seen[v] != 1+NumBuckets+2 {
			t.Errorf("label %q round-tripped on %d rows, want %d", v, seen[v], 1+NumBuckets+2)
		}
	}
	if strings.Contains(b.String(), `\t`) || strings.Contains(b.String(), `\u`) {
		t.Fatalf("illegal escapes in output:\n%s", b.String())
	}
}

// TestWriteFamiliesValues: integral values print as integers, the rest
// in shortest float form, and a label-free sample has no braces.
func TestWriteFamiliesValues(t *testing.T) {
	var b strings.Builder
	_ = WriteFamilies(&b, []Family{{Name: "g", Type: TypeGauge, Help: "G.", Samples: []Sample{
		{Value: 12345678}, {Labels: []string{"k", "v"}, Value: 0.25},
	}}})
	want := "# HELP g G.\n# TYPE g gauge\ng 12345678\ng{k=\"v\"} 0.25\n"
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}
