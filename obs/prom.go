package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// The one exposition path of obs: every Prometheus writer emits its
// families through a promWriter, and every HTTP endpoint picks its
// response format through serve.

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// labelEscaper applies the exposition format's label-value escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promWriter appends Prometheus text exposition (version 0.0.4) to a
// buffer that every writer derived from it by with shares. labels is
// the rendered label set each sample the writer emits carries.
type promWriter struct {
	b      *strings.Builder
	labels string
}

func newPromWriter() promWriter { return promWriter{b: new(strings.Builder)} }

// with returns a writer onto the same buffer whose samples also carry
// the given label name/value pairs; values are formatted with
// fmt.Sprint and escaped.
func (p promWriter) with(kv ...any) promWriter {
	var l strings.Builder
	l.WriteString(p.labels)
	for i := 0; i+1 < len(kv); i += 2 {
		if l.Len() > 0 {
			l.WriteByte(',')
		}
		fmt.Fprintf(&l, `%s="%s"`, kv[i], labelEscaper.Replace(fmt.Sprint(kv[i+1])))
	}
	return promWriter{p.b, l.String()}
}

// family writes a family's # HELP and # TYPE lines; its samples follow.
func (p promWriter) family(name, typ, help string) {
	fmt.Fprintf(p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one sample: floats through formatFloat, bools as 1/0,
// integers exactly (a uint64 counter never passes through float64).
func (p promWriter) sample(name string, v any) {
	switch x := v.(type) {
	case float64:
		v = formatFloat(x)
	case bool:
		v = 0
		if x {
			v = 1
		}
	}
	fmt.Fprintf(p.b, "%s{%s} %v\n", name, p.labels, v)
}

// scalar writes a family holding one sample.
func (p promWriter) scalar(name, typ, help string, v any) {
	p.family(name, typ, help)
	p.sample(name, v)
}

// hist writes one series of a log2-bucket histogram family: cumulative
// le buckets, sum and count, as the exposition format requires.
func (p promWriter) hist(name string, hist []uint64, sumNs int64) {
	cum := uint64(0)
	for i, c := range hist {
		cum += c
		if c == 0 && i != 0 && i != len(hist)-1 {
			continue // elide empty interior buckets; cumulative counts stay exact
		}
		le := "+Inf"
		if i < len(hist)-1 {
			le = strconv.FormatInt(BucketUpperNs(i), 10)
		}
		p.with("le", le).sample(name+"_bucket", cum)
	}
	p.sample(name+"_sum", sumNs)
	p.sample(name+"_count", cum)
}

// flush writes the buffered exposition to w.
func (p promWriter) flush(w io.Writer) error {
	_, err := io.WriteString(w, p.b.String())
	return err
}

// formatFloat renders a sample value for the text exposition. The
// format admits non-real values only with the exact spellings "NaN",
// "+Inf" and "-Inf"; the streaming layer exports NaN on purpose for
// sampleless windows, so the special cases are handled explicitly
// rather than trusting a formatting verb to spell them right.
func formatFloat(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// formats maps a ?format= value to the function writing that body.
type formats map[string]func(io.Writer) error

// contentTypes is the Content-Type of every ?format= value an obs
// endpoint serves.
var contentTypes = map[string]string{
	"prom":   promContentType,
	"json":   "application/json",
	"chrome": "application/json",
	"text":   "text/plain; charset=utf-8",
	"gantt":  "text/plain; charset=utf-8",
}

// serve returns a handler answering each request in the format its
// ?format= query names, or in def when the query is absent or names a
// format the endpoint lacks. snapshot runs once per request, so every
// format renders the same capture.
func serve(def string, snapshot func() formats) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fs := snapshot()
		name := r.URL.Query().Get("format")
		if fs[name] == nil {
			name = def
		}
		w.Header().Set("Content-Type", contentTypes[name])
		_ = fs[name](w)
	})
}

// writeJSON writes v as two-space indented JSON, the body of every
// endpoint's json format.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
