// Package obsv is the observability vocabulary shared by the batch
// build path (core.BuildModel's stage runner) and the serving daemon
// (internal/serve): counters, gauges, and log-linear histograms in a
// Registry that renders the Prometheus text exposition format. It is
// stdlib-only and allocation-free on the hot path — a Counter.Inc is
// one atomic add, a Histogram.Observe is a binary search plus two
// atomic adds — so instrumentation can sit on per-request and
// per-sample paths without showing up in profiles.
//
// Metric families are registered once by name; registration is
// idempotent (asking for the same name again returns the same family)
// but re-registering a name as a different kind or with a different
// label scheme panics, since that is always a programming error.
// Labeled families hand out their per-label-tuple series through With,
// which caches the series so steady-state lookups take one map read
// under a short critical section.
package obsv

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of metric families and renders them in
// Prometheus text format. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric with a fixed kind and label scheme; its
// series map holds one metric instance per label tuple ("" for the
// unlabeled singleton).
type family struct {
	name   string
	help   string
	kind   string // "counter", "gauge", "histogram"
	labels []string

	mu    sync.Mutex
	order []string          // label-tuple keys in first-use order
	by    map[string]metric // label-tuple key -> instance
}

// metric is the exposition hook every instrument implements. Rendering
// targets a strings.Builder (whose writes cannot fail) so the single
// fallible write to the caller's io.Writer happens once, in
// WritePrometheus.
type metric interface {
	expose(b *strings.Builder, name, labelPrefix string)
}

// register returns the family for name, creating it on first use and
// panicking on kind or label-scheme mismatch.
func (r *Registry) register(name, help, kind string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obsv: %s registered as %s, requested as %s", name, f.kind, kind))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obsv: %s registered with labels %v, requested with %v", name, f.labels, labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obsv: %s registered with labels %v, requested with %v", name, f.labels, labels))
			}
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, by: make(map[string]metric)}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// get returns the series for one label tuple, creating it with mk on
// first use.
func (f *family) get(key string, mk func() metric) metric {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.by[key]; ok {
		return m
	}
	m := mk()
	f.by[key] = m
	f.order = append(f.order, key)
	return m
}

// labelKey renders one label tuple as the exposition fragment
// `name="value",...` (no braces), which doubles as the cache key.
func (f *family) labelKey(values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obsv: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	if len(values) == 0 {
		return ""
	}
	var b strings.Builder
	for i, v := range values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the exposition-format label-value escapes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// ---- Counter ----

// Counter is a monotonically increasing count.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

func (c *Counter) expose(b *strings.Builder, name, labels string) {
	fmt.Fprintf(b, "%s%s %d\n", name, braced(labels), c.Value())
}

// Counter returns the unlabeled counter family name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	return f.get("", func() metric { return new(Counter) }).(*Counter)
}

// counterFunc is a counter whose owner keeps the count: read runs at
// every exposition.
type counterFunc func() uint64

func (c counterFunc) expose(b *strings.Builder, name, labels string) {
	fmt.Fprintf(b, "%s%s %d\n", name, braced(labels), c())
}

// CounterFunc registers the unlabeled counter family name as a view of
// a count kept elsewhere: read, which must be monotonic and safe for
// concurrent use, is called at every exposition. Like Counter it is
// idempotent; the first registration's read stays.
func (r *Registry) CounterFunc(name, help string, read func() uint64) {
	f := r.register(name, help, "counter", nil)
	f.get("", func() metric { return counterFunc(read) })
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labels)}
}

// With returns the counter for one label-value tuple.
func (v *CounterVec) With(values ...string) *Counter {
	key := v.f.labelKey(values)
	return v.f.get(key, func() metric { return new(Counter) }).(*Counter)
}

// ---- Gauge ----

// Gauge is a value that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; safe for concurrent adders).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) expose(b *strings.Builder, name, labels string) {
	fmt.Fprintf(b, "%s%s %s\n", name, braced(labels), formatFloat(g.Value()))
}

// Gauge returns the unlabeled gauge family name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil)
	return f.get("", func() metric { return new(Gauge) }).(*Gauge)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", labels)}
}

// With returns the gauge for one label-value tuple.
func (v *GaugeVec) With(values ...string) *Gauge {
	key := v.f.labelKey(values)
	return v.f.get(key, func() metric { return new(Gauge) }).(*Gauge)
}

// ---- Histogram ----

// DefaultBuckets returns the log-linear bucket bounds histograms use:
// three linear subdivisions (1, 2.5, 5) of every decade from 1µs to
// 1000s. The scheme keeps relative error bounded (~2.5×) across nine
// orders of magnitude with 28 buckets — wide enough for both
// per-request latencies and multi-minute build stages, so the build
// and serve paths share one bucket vocabulary.
func DefaultBuckets() []float64 {
	var out []float64
	for e := -6; e <= 2; e++ {
		scale := math.Pow(10, float64(e))
		for _, m := range []float64{1, 2.5, 5} {
			out = append(out, m*scale)
		}
	}
	return append(out, 1000)
}

// Histogram counts observations into fixed buckets and tracks their
// sum, exposed in the Prometheus cumulative-`le` histogram format.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v; past the last bound the
	// observation lands in the implicit +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) expose(b *strings.Builder, name, labels string) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="`+formatFloat(bound)+`"`)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="+Inf"`)), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, braced(labels), formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, braced(labels), h.Count())
}

// Histogram returns the unlabeled histogram family name with the
// default log-linear buckets.
func (r *Registry) Histogram(name, help string) *Histogram {
	f := r.register(name, help, "histogram", nil)
	return f.get("", func() metric { return newHistogram(DefaultBuckets()) }).(*Histogram)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family name with the
// default log-linear buckets.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, "histogram", labels)}
}

// With returns the histogram for one label-value tuple.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := v.f.labelKey(values)
	return v.f.get(key, func() metric { return newHistogram(DefaultBuckets()) }).(*Histogram)
}

// ---- Exposition ----

// WritePrometheus renders every registered family in the Prometheus
// text exposition format, families in registration order, series in
// first-use order. The page is rendered in memory and written to w in
// one call; the returned error is that write's.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range families {
		f.mu.Lock()
		keys := make([]string, len(f.order))
		copy(keys, f.order)
		series := make([]metric, len(keys))
		for i, k := range keys {
			series[i] = f.by[k]
		}
		f.mu.Unlock()
		if len(series) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for i, m := range series {
			m.expose(&b, f.name, keys[i])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the exposition text (the
// /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A failed write means the scraper went away mid-response;
		// there is nothing left to report it to.
		_ = r.WritePrometheus(w)
	})
}

// braced wraps a non-empty label fragment in {}.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// joinLabels appends one rendered label pair to an existing fragment.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// formatFloat renders a float in the shortest round-trippable form.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
