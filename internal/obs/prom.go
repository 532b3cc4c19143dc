package obs

import (
	"io"
	"math"
	"strconv"
)

// Prometheus family types.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Family is one Prometheus metric family: its name, type, help and
// samples. WriteFamilies is the only code that turns families into
// exposition text, so HELP/TYPE lines, label escaping and histogram rows
// are written one way for every producer.
type Family struct {
	Name, Type, Help string
	Samples          []Sample
}

// Sample is one series of a family. Labels holds name, value pairs in
// order. Counter and gauge samples carry Value; histogram samples carry
// Hist instead.
type Sample struct {
	Labels []string
	Value  float64
	Hist   *HistSample
}

// HistSample is one histogram series.
type HistSample struct {
	// Bounds are the finite inclusive bucket upper bounds; a final +Inf
	// bucket is implied.
	Bounds []float64
	// Counts are per-bucket (not cumulative) observation counts, one per
	// bound plus the +Inf bucket. Missing counts read as zero and extra
	// ones are ignored, so _count always equals the +Inf bucket.
	Counts []uint64
	// Sum is the exact sum of every observation.
	Sum float64
	// Exemplars, when set, is indexed like Counts; an empty TraceID
	// means the bucket has no exemplar.
	Exemplars []Exemplar
}

// Exemplar links one bucket to the trace of an observation in it.
type Exemplar struct {
	TraceID string
	Value   float64
}

// latencyBounds are the Histogram bucket bounds in seconds: every bucket
// but the final +Inf one.
var latencyBounds = func() []float64 {
	b := make([]float64, NumBuckets-1)
	for i := range b {
		b[i] = bucketLe(i)
	}
	return b
}()

// WriteFamilies writes fams in the Prometheus text exposition format
// (version 0.0.4): HELP then TYPE for every family, then its samples.
// Histogram samples become cumulative _bucket rows (with OpenMetrics
// exemplars where present), _sum and _count. The text is written to w in
// one call.
func WriteFamilies(w io.Writer, fams []Family) error {
	var b []byte
	for _, f := range fams {
		b = append(b, "# HELP "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = append(b, f.Help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = append(b, f.Type...)
		b = append(b, '\n')
		for _, s := range f.Samples {
			if s.Hist == nil {
				b = appendRow(b, f.Name, "", s.Labels, "", s.Value)
				b = append(b, '\n')
				continue
			}
			b = appendHist(b, f.Name, s.Labels, s.Hist)
		}
	}
	_, err := w.Write(b)
	return err
}

func appendHist(b []byte, name string, labels []string, h *HistSample) []byte {
	var cum uint64
	for i := 0; i <= len(h.Bounds); i++ {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		le := "+Inf"
		if i < len(h.Bounds) {
			le = strconv.FormatFloat(h.Bounds[i], 'g', -1, 64)
		}
		b = appendRow(b, name, "_bucket", labels, le, float64(cum))
		if i < len(h.Exemplars) && h.Exemplars[i].TraceID != "" {
			b = append(b, ` # {trace_id="`...)
			b = appendEscaped(b, h.Exemplars[i].TraceID)
			b = append(b, `"} `...)
			b = appendValue(b, h.Exemplars[i].Value)
		}
		b = append(b, '\n')
	}
	b = appendRow(b, name, "_sum", labels, "", h.Sum)
	b = append(b, '\n')
	b = appendRow(b, name, "_count", labels, "", float64(cum))
	return append(b, '\n')
}

// appendRow appends one sample row without its newline; le, when set,
// is appended as the final label.
func appendRow(b []byte, name, suffix string, labels []string, le string, v float64) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	sep := byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		b = appendLabel(b, sep, labels[i], labels[i+1])
		sep = ','
	}
	if le != "" {
		b = appendLabel(b, sep, "le", le)
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	b = append(b, ' ')
	return appendValue(b, v)
}

func appendLabel(b []byte, sep byte, name, value string) []byte {
	b = append(b, sep)
	b = append(b, name...)
	b = append(b, `="`...)
	b = appendEscaped(b, value)
	return append(b, '"')
}

// appendValue renders integral values as integers (counters and byte
// gauges read exactly) and everything else in the shortest float form.
func appendValue(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendEscaped appends a label value escaped for the text exposition
// format, which demands exactly three escapes — backslash, double quote
// and newline — and takes every other byte, including tabs and non-ASCII
// UTF-8, verbatim. Go's %q is not usable here: it emits \t and \uXXXX
// sequences, which scrapers reject as malformed.
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, `\\`...)
		case '"':
			b = append(b, `\"`...)
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, s[i])
		}
	}
	return b
}
