// Package obs is the zero-dependency observability substrate of the
// monitoring stack: a metrics registry of counters, gauges, and fixed-bucket
// histograms with Prometheus text-format and expvar exposition, plus a
// bounded decision-level tracer (trace.go) whose ring buffer exports as
// Chrome trace-event JSON.
//
// The package is built around one contract: observability off must cost
// nothing. Every instrument is nil-safe — methods on a nil *Counter, *Gauge,
// *Histogram, *Tracer, *Registry, or *Sink are no-ops — so instrumented code
// holds instrument pointers unconditionally and the uninstrumented path pays
// a single predictable branch, no allocation, no interface dispatch.
// Instrument hot paths (Counter.Add, Gauge.Set, Histogram.Observe) are one
// or two uncontended atomics; registration and exposition take locks and are
// expected to be rare.
package obs

import (
	"bytes"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil Counter discards all operations.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready to use;
// a nil Gauge discards all operations.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket latency/size histogram with cumulative
// Prometheus exposition. Observe is two atomic operations (bucket increment
// and a CAS loop on the sum); bounds are immutable after construction. A nil
// Histogram discards all operations.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", b))
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bucket with bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds()) //lint:allow wallclock latency measurement is the histogram's purpose
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// LatencyBuckets returns the default latency bucket bounds, in seconds:
// 1µs .. 2.5s in a 1-2.5-5 progression. Wide enough for a single in-memory
// safe-region update (microseconds) through a full batch tick under load.
func LatencyBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1, 2.5,
	}
}

// SizeBuckets returns power-of-two bucket bounds for batch/queue sizes.
func SizeBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
}

// --- registry ----------------------------------------------------------------

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled instance of a metric family. Exactly one of cf, gf
// and h is set; c and g hold the instrument Counter and Gauge hand out, whose
// Value is then cf or gf.
type series struct {
	labels string // `k="v",k2="v2"` without braces; "" for unlabeled
	c      *Counter
	g      *Gauge
	cf     func() int64
	gf     func() float64
	h      *Histogram
}

// family is a named metric family: HELP/TYPE metadata plus its series.
type family struct {
	name   string
	help   string
	typ    string
	series []*series
}

// Registry holds metric families and renders them in Prometheus text format
// (WriteText / ServeHTTP) and as an expvar snapshot (PublishExpvar). A nil
// Registry returns nil instruments from every constructor, which in turn
// no-op, so a single nil check at wiring time disables a whole subsystem's
// metrics.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// labelString renders variadic "key", "value" pairs into the canonical label
// body `k="v",k2="v2"`. Panics on an odd pair count (programmer error).
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup finds or creates the family and series slot for a registration.
// Returns the existing series when the same name+labels was registered
// before (idempotent registration), so components can be re-wired to the
// same registry without double counting.
func (r *Registry) lookup(name, help, typ, labels string) (*family, *series, bool) {
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: %s registered as %s and %s", name, f.typ, typ))
	}
	for _, s := range f.series {
		if s.labels == labels {
			return f, s, true
		}
	}
	s := &series{labels: labels}
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	return f, s, false
}

// Counter registers (or returns the existing) counter name with optional
// "key", "value" label pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, ok := r.lookup(name, help, typeCounter, labelString(labels))
	if !ok {
		s.c = &Counter{}
		s.cf = s.c.Value
	}
	return s.c
}

// CounterFunc registers a counter read from fn at exposition time, for a
// count its component already keeps; it renders like Counter. fn has
// GaugeFunc's contract, and re-registering the same name+labels replaces it.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, _ := r.lookup(name, help, typeCounter, labelString(labels))
	s.c = nil
	s.cf = fn
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, ok := r.lookup(name, help, typeGauge, labelString(labels))
	if !ok {
		s.g = &Gauge{}
		s.gf = s.g.Value
	}
	return s.g
}

// GaugeFunc registers a gauge evaluated at exposition time. fn must be safe
// to call from any goroutine and cheap (it runs under the registry lock).
// Re-registering the same name+labels replaces the function, so a restarted
// component can rebind its live state.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, _ := r.lookup(name, help, typeGauge, labelString(labels))
	s.g = nil
	s.gf = fn
}

// Histogram registers (or returns the existing) histogram with the given
// ascending bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, ok := r.lookup(name, help, typeHistogram, labelString(labels))
	if !ok {
		s.h = newHistogram(bounds)
	}
	return s.h
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// WriteText renders the registry in the Prometheus text exposition format
// (version 0.0.4): one HELP and TYPE line per family, then its samples in
// label order; histograms expose cumulative _bucket series plus _sum and
// _count.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Render under the lock, write after it: a slow reader never holds it.
	var b bytes.Buffer
	func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, f := range r.sortedFamilies() {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)
			for _, s := range f.series {
				writeSeries(&b, f, s)
			}
		}
	}()
	_, err := w.Write(b.Bytes())
	return err
}

func escapeHelp(h string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sampleName renders `name{labels}` or bare `name`, optionally appending an
// extra label (the histogram `le`).
func sampleName(name, labels, extra string) string {
	body := labels
	if extra != "" {
		if body != "" {
			body += ","
		}
		body += extra
	}
	if body == "" {
		return name
	}
	return name + "{" + body + "}"
}

func writeSeries(b *bytes.Buffer, f *family, s *series) {
	switch {
	case s.cf != nil:
		fmt.Fprintf(b, "%s %d\n", sampleName(f.name, s.labels, ""), s.cf())
	case s.gf != nil:
		fmt.Fprintf(b, "%s %s\n", sampleName(f.name, s.labels, ""), formatFloat(s.gf()))
	case s.h != nil:
		var cum int64
		for i, bound := range s.h.bounds {
			cum += s.h.counts[i].Load()
			fmt.Fprintf(b, "%s %d\n", sampleName(f.name+"_bucket", s.labels, `le="`+formatFloat(bound)+`"`), cum)
		}
		cum += s.h.counts[len(s.h.bounds)].Load()
		fmt.Fprintf(b, "%s %d\n", sampleName(f.name+"_bucket", s.labels, `le="+Inf"`), cum)
		fmt.Fprintf(b, "%s %s\n", sampleName(f.name+"_sum", s.labels, ""), formatFloat(s.h.Sum()))
		fmt.Fprintf(b, "%s %d\n", sampleName(f.name+"_count", s.labels, ""), cum)
	}
}

// ServeHTTP serves the Prometheus text exposition, so a Registry can be
// mounted directly on a mux (e.g. under /metrics).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A failed write means the scraper went away; nothing to do about it here.
	_ = r.WriteText(w) //lint:allow errdrop scraper disconnect is not actionable
}

// --- expvar exposition -------------------------------------------------------

// expvarTargets maps a published expvar name to the registry currently
// backing it. expvar.Publish is permanent (republishing panics), so the
// published Func indirects through this table and PublishExpvar swaps the
// target — tests and restarted components can rebind freely.
var (
	expvarMu      sync.Mutex
	expvarTargets = map[string]*Registry{}
)

// PublishExpvar exposes the registry under the given expvar name (visible on
// /debug/vars wherever the default mux is served). Calling it again — with
// this or another registry — rebinds the name.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if _, ok := expvarTargets[name]; !ok {
		expvar.Publish(name, expvar.Func(func() interface{} {
			expvarMu.Lock()
			t := expvarTargets[name]
			expvarMu.Unlock()
			return t.expvarSnapshot()
		}))
	}
	expvarTargets[name] = r
}

// expvarSnapshot renders the registry as a JSON-encodable map: counters and
// gauges as scalars, histograms as {count, sum}.
func (r *Registry) expvarSnapshot() map[string]interface{} {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]interface{}, len(r.fams))
	for _, f := range r.sortedFamilies() {
		for _, s := range f.series {
			name := sampleName(f.name, s.labels, "")
			switch {
			case s.cf != nil:
				out[name] = s.cf()
			case s.gf != nil:
				out[name] = s.gf()
			case s.h != nil:
				out[name] = map[string]interface{}{"count": s.h.Count(), "sum": s.h.Sum()}
			}
		}
	}
	return out
}
