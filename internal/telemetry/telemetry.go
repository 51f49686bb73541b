// Package telemetry is SmartVLC's deterministic metrics layer: a
// race-safe registry of atomic counters, gauges and log-bucketed
// histograms with exemplars, exportable as Prometheus or OpenMetrics text
// exposition or canonical JSON. What happened to each frame lives in the
// sibling pillars: span trees (span), structured logs (vlog), link health
// (health) and flight bundles (flight).
//
// Two rules distinguish it from a general-purpose metrics library:
//
//   - Determinism. Timestamps are simulation time (slot index × tslot) or
//     whatever clock the caller injects — never wall time. Two sessions
//     with identical config and seed therefore produce byte-identical
//     snapshots, which is asserted by tests and makes metrics diffable
//     across runs, machines and CI.
//
//   - Nil is the no-op default. Every method on a nil *Registry, *Counter,
//     *Gauge, *Histogram or *TxMetrics-style holder is a cheap no-op, so
//     hot paths carry instrument handles unconditionally and pay only a
//     nil check (zero allocations) when telemetry is off.
//
// Instrument handles are created once (Registry.Counter et al. memoize by
// name+labels) and then operated lock-free via atomics, so one registry
// can be hammered from concurrent sessions.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Registry holds a set of metric series. The zero value is not usable;
// call New. A nil *Registry is the no-op default:
// every method on it (and on the nil handles it returns) does nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
	}
}

// Help attaches Prometheus HELP text to a metric family name.
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// seriesKey builds the registry map key for a name and sorted labels.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0xff)
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// makeLabels converts variadic k1,v1,k2,v2 pairs into sorted labels.
// An odd trailing key is ignored.
func makeLabels(pairs []string) []Label {
	n := len(pairs) / 2
	if n == 0 {
		return nil
	}
	ls := make([]Label, 0, n)
	for i := 0; i+1 < len(pairs); i += 2 {
		ls = append(ls, Label{Key: pairs[i], Value: pairs[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Counter is a monotonically increasing integer series. The nil Counter
// is a no-op.
type Counter struct {
	v      atomic.Int64
	name   string
	labels []Label
}

// Counter returns the counter series for name and optional label pairs
// (k1, v1, k2, v2, ...), creating it on first use. Returns nil on a nil
// registry.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	ls := makeLabels(labelPairs)
	k := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{name: name, labels: ls}
		r.counters[k] = c
	}
	return c
}

// LookupCounter returns the counter series for name and label pairs only
// if it already exists — nil otherwise, and on a nil registry. Unlike
// Counter it never creates the series, so observers (the fleet
// aggregation feed, tests) can poll for a series the session may not
// have touched yet without perturbing the registry's canonical snapshot.
func (r *Registry) LookupCounter(name string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	k := seriesKey(name, makeLabels(labelPairs))
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[k]
}

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 series holding the latest observed value. The nil
// Gauge is a no-op.
type Gauge struct {
	bits   atomic.Uint64
	name   string
	labels []Label
}

// Gauge returns the gauge series for name and optional label pairs,
// creating it on first use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	ls := makeLabels(labelPairs)
	k := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{name: name, labels: ls}
		r.gauges[k] = g
	}
	return g
}

// LookupGauge returns the gauge series only if it already exists — nil
// otherwise, and on a nil registry. Never creates the series.
func (r *Registry) LookupGauge(name string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	k := seriesKey(name, makeLabels(labelPairs))
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[k]
}

// Set stores v as the gauge's current value. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the fixed bucket count of every histogram: bucket i
// covers (2^(i-32), 2^(i-31)] so the base-2 grid spans ~4.7e-10 .. 2^31
// with bucket 0 absorbing everything smaller (including zero) and the
// last bucket everything larger.
const histBuckets = 64

// histBound returns bucket i's inclusive upper bound.
func histBound(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return math.Ldexp(1, i-31)
}

// Exemplar links one histogram observation back to the frame that caused
// it: the span ID of the frame's root span (0 when spans are off), the
// frame sequence number, and the simulation timestamp. A p99 bucket's
// exemplar is the jump-off point into the span tree or flight bundle of
// the offending frame. Shard is assigned by Merge (the position of the
// source snapshot in the merge order); per-session snapshots carry 0.
type Exemplar struct {
	Value float64 `json:"value"`
	At    float64 `json:"at"`
	Seq   int64   `json:"seq"`
	Span  int64   `json:"span,omitempty"`
	Shard int     `json:"shard,omitempty"`
}

// ExemplarsPerBucket bounds each bucket's exemplar reservoir. The
// reservoir keeps the top entries under exemplarLess's total order, so
// its final contents are independent of insertion order — the property
// that keeps snapshots byte-identical across worker counts.
const ExemplarsPerBucket = 2

// exemplarLess is the total order of exemplar reservoirs: larger values
// first (the tail of a bucket is what a drill-down wants), then earlier
// simulation time, then lower sequence, then lower shard — the
// lowest-shard-wins tiebreak of Merge.
func exemplarLess(a, b Exemplar) bool {
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	return a.Shard < b.Shard
}

// insertExemplar merges ex into a sorted reservoir, keeping at most
// ExemplarsPerBucket entries. Because the reservoir is the top-K of a
// multiset under a total order, the result does not depend on the order
// in which exemplars arrive.
func insertExemplar(list []Exemplar, ex Exemplar) []Exemplar {
	pos := len(list)
	for i, e := range list {
		if exemplarLess(ex, e) {
			pos = i
			break
		}
	}
	if pos >= ExemplarsPerBucket {
		return list
	}
	list = append(list, Exemplar{})
	copy(list[pos+1:], list[pos:])
	list[pos] = ex
	if len(list) > ExemplarsPerBucket {
		list = list[:ExemplarsPerBucket]
	}
	return list
}

// Histogram is a log2-bucketed distribution with atomic buckets, count
// and sum, plus an optional deterministic exemplar reservoir per bucket.
// The nil Histogram is a no-op.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	name    string
	labels  []Label

	// exemplar reservoirs, lazily allocated on the first attach; Observe
	// never touches them, so the exemplar-free hot path stays lock-free.
	exMu sync.Mutex
	ex   map[int][]Exemplar
}

// Histogram returns the histogram series for name and optional label
// pairs, creating it on first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	ls := makeLabels(labelPairs)
	k := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{name: name, labels: ls}
		r.hists[k] = h
	}
	return h
}

// LookupHistogram returns the histogram series only if it already exists
// — nil otherwise, and on a nil registry. Never creates the series.
func (r *Registry) LookupHistogram(name string, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	k := seriesKey(name, makeLabels(labelPairs))
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[k]
}

// bucketIndex maps a value to its log2 bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	f, e := math.Frexp(v) // v = f·2^e, f ∈ [0.5, 1)
	ceil := e
	if f == 0.5 {
		ceil = e - 1
	}
	idx := ceil + 31
	if idx < 0 {
		return 0
	}
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value and files ex into the reservoir of
// the bucket it maps to. ex.Value is forced to v so the exemplar always
// matches its bucket. No-op on nil.
func (h *Histogram) ObserveExemplar(v float64, ex Exemplar) {
	if h == nil {
		return
	}
	h.Observe(v)
	ex.Value = v
	i := bucketIndex(v)
	h.exMu.Lock()
	if h.ex == nil {
		h.ex = map[int][]Exemplar{}
	}
	h.ex[i] = insertExemplar(h.ex[i], ex)
	h.exMu.Unlock()
}

// exemplars returns a copy of the per-bucket reservoirs (nil when none).
func (h *Histogram) exemplars() map[int][]Exemplar {
	if h == nil {
		return nil
	}
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if len(h.ex) == 0 {
		return nil
	}
	out := make(map[int][]Exemplar, len(h.ex))
	for i, list := range h.ex {
		out[i] = append([]Exemplar(nil), list...)
	}
	return out
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// NumHistogramBuckets is the fixed bucket count of every histogram,
// exported for callers that mirror the dense bucket grid (e.g. the fleet
// aggregation fold).
const NumHistogramBuckets = histBuckets

// BucketCounts copies the current bucket occupancies into dst, one slot
// per log2 bucket. No-op on nil (dst is left untouched).
func (h *Histogram) BucketCounts(dst *[NumHistogramBuckets]int64) {
	if h == nil {
		return
	}
	for i := range dst {
		dst[i] = h.buckets[i].Load()
	}
}
