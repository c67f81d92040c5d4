// Package obs is the mining engine's observability substrate: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms in Prometheus text exposition format) and the stage-level
// mine trace types the core miner fills in.
//
// The record path — Counter.Add, Gauge.Set, Histogram.Observe — performs
// zero allocations and is safe for concurrent use. Its callers record
// once per job, shard RPC or HTTP request, never per entropy or
// partition, so each counter and gauge is one atomic float64.
//
// Cardinality is the caller's responsibility: children are created up
// front (registration is get-or-create and locked), then recorded on
// lock-free; nothing on the record path ever touches the registry maps.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric child.
type Label struct{ Key, Value string }

// L is shorthand for Label{k, v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// atomicFloat is a float64 updated atomically, stored as its bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

// Counter is a monotone cumulative metric.
type Counter struct {
	v atomicFloat
}

// Add increments the counter by v; negative deltas are ignored (a counter
// never goes down).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.v.add(v)
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter value.
func (c *Counter) Value() float64 { return c.v.load() }

// Gauge is a value that can go up and down. Set/Add/Value are lock-free
// and allocation-free.
type Gauge struct {
	v atomicFloat
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.store(v) }

// Add adjusts the gauge by d (negative deltas allowed).
func (g *Gauge) Add(d float64) { g.v.add(d) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

// Histogram is a fixed-bucket cumulative histogram. Buckets are set at
// registration and never change; Observe is a binary search plus two
// atomic adds — zero allocations, safe under -race.
type Histogram struct {
	bounds []float64 // upper bounds, strictly increasing; +Inf implicit
	counts []atomic.Int64
	sum    atomicFloat
	count  atomic.Int64
}

// DefBuckets is the default latency bucket layout (seconds), matching the
// conventional Prometheus client defaults.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Observe records one measurement.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; len(bounds) is the +Inf
	// bucket.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// metric kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// child is one labeled instance within a family.
type child struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // callback gauge; read at exposition time
}

// family is one metric name: its HELP/TYPE metadata plus all labeled
// children.
type family struct {
	name, help, kind string
	children         map[string]*child // keyed by canonical label signature
	order            []string          // signatures in registration order
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration (Counter/Gauge/Histogram/GaugeFunc) is
// get-or-create: asking for the same name and labels twice returns the
// same instrument, so wiring code may run repeatedly. Registering a name
// under two different kinds panics — that is a programming error.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// sig builds the canonical label signature (sorted by key). Values are
// length-prefixed so separator bytes inside a value cannot collide with
// the pair delimiters (keys are charset-restricted by labelRE and cannot
// contain '=' or ',').
func sig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(len(l.Value)))
		b.WriteByte(':')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

func (r *Registry) familyOf(name, help, kind string) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]*child)}
		r.fams[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

func (f *family) childOf(labels []Label) (*child, bool) {
	for _, l := range labels {
		if !labelRE.MatchString(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l.Key, f.name))
		}
	}
	s := sig(labels)
	if c, ok := f.children[s]; ok {
		return c, false
	}
	c := &child{labels: append([]Label(nil), labels...)}
	f.children[s] = c
	f.order = append(f.order, s)
	return c, true
}

// Counter registers (or returns) the counter child of name with the given
// labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, fresh := r.familyOf(name, help, kindCounter).childOf(labels)
	if fresh {
		c.counter = &Counter{}
	}
	if c.counter == nil {
		panic(fmt.Sprintf("obs: counter %q already registered as a callback", name))
	}
	return c.counter
}

// Gauge registers (or returns) the gauge child of name with the given
// labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, fresh := r.familyOf(name, help, kindGauge).childOf(labels)
	if fresh {
		c.gauge = &Gauge{}
	}
	if c.gauge == nil {
		panic(fmt.Sprintf("obs: gauge %q already registered as a callback", name))
	}
	return c.gauge
}

// GaugeFunc registers a callback gauge: fn is invoked at exposition time.
// Use it to surface live engine state (cache occupancy, queue depth)
// without a polling loop. Re-registering the same name and labels keeps
// the first callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, fresh := r.familyOf(name, help, kindGauge).childOf(labels)
	if fresh {
		c.fn = fn
	}
}

// CounterFunc registers a callback counter: fn is invoked at exposition
// time and must be monotonically non-decreasing (a cumulative count kept
// by some other subsystem). Re-registering the same name and labels
// keeps the first callback.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, fresh := r.familyOf(name, help, kindCounter).childOf(labels)
	if fresh {
		c.fn = fn
	}
}

// Histogram registers (or returns) the histogram child of name. bounds
// must be strictly increasing; nil means DefBuckets. Buckets are fixed at
// first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, fresh := r.familyOf(name, help, kindHistogram).childOf(labels)
	if fresh {
		c.hist = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	}
	return c.hist
}
