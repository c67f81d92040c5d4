package obs

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	c := &Counter{}
	c.Inc()
	c.Add(2.5)
	c.Add(0)  // ignored
	c.Add(-3) // ignored: counters never go down
	if got := c.Value(); got != 3.5 {
		t.Errorf("Counter.Value = %v, want 3.5", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	g := &Gauge{}
	g.Set(10)
	g.Add(-2.5)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7.5 {
		t.Errorf("Gauge.Value = %v, want 7.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Errorf("Gauge.Value after Set(-1) = %v, want -1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_test", "test", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+3+100; got != want {
		t.Errorf("Sum = %v, want %v", got, want)
	}
	// Per-bucket (non-cumulative) placement: le=1 gets 0.5 and 1 (bound is
	// inclusive), le=2 gets 1.5, le=5 gets 3, +Inf gets 100.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help", L("k", "v"))
	c2 := r.Counter("x_total", "help", L("k", "v"))
	if c1 != c2 {
		t.Error("re-registering the same counter+labels returned a distinct instrument")
	}
	c3 := r.Counter("x_total", "help", L("k", "w"))
	if c1 == c3 {
		t.Error("different label values returned the same instrument")
	}
	// Label order must not matter: the signature is canonical.
	g1 := r.Gauge("g", "help", L("a", "1"), L("b", "2"))
	g2 := r.Gauge("g", "help", L("b", "2"), L("a", "1"))
	if g1 != g2 {
		t.Error("label order changed the child identity")
	}
}

func TestRegistryPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"kind mismatch", func(r *Registry) {
			r.Counter("m", "h")
			r.Gauge("m", "h")
		}},
		{"invalid metric name", func(r *Registry) { r.Counter("bad-name", "h") }},
		{"invalid label name", func(r *Registry) { r.Counter("m_total", "h", L("bad-key", "v")) }},
		{"non-increasing bounds", func(r *Registry) { r.Histogram("h", "h", []float64{1, 1}) }},
		{"gauge then callback collision", func(r *Registry) {
			r.GaugeFunc("m", "h", func() float64 { return 0 })
			r.Gauge("m", "h")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestCallbackKeepsFirst(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("cb", "h", func() float64 { return 1 })
	r.GaugeFunc("cb", "h", func() float64 { return 2 })
	r.CounterFunc("cbc_total", "h", func() float64 { return 10 })
	r.CounterFunc("cbc_total", "h", func() float64 { return 20 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "cb 1\n") {
		t.Errorf("GaugeFunc did not keep the first callback:\n%s", out)
	}
	if !strings.Contains(out, "cbc_total 10\n") {
		t.Errorf("CounterFunc did not keep the first callback:\n%s", out)
	}
}

// TestExpositionRoundTrip: everything the registry writes must survive the
// strict parser — the same invariant the CI scrape gate enforces against a
// live maimond — including awkward label values that need escaping.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "jobs submitted", L("state", "done")).Add(3)
	r.Counter("jobs_total", "jobs submitted", L("state", "failed")).Add(1)
	r.Gauge("queue_depth", "queue depth").Set(7)
	r.GaugeFunc("build_info", "build metadata\nwith a newline", func() float64 { return 1 },
		L("version", `quo"te and back\slash and`+"\nnewline"))
	r.CounterFunc("cache_hits_total", "cache hits", func() float64 { return 42 })
	h := r.Histogram("latency_seconds", "request latency", nil, L("route", "/v1/jobs"))
	for _, v := range []float64{0.002, 0.01, 0.3, 4} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	e, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("registry output rejected by own parser: %v\n%s", err, b.String())
	}
	// 2 counter children + 1 gauge + 1 gauge func + 1 counter func +
	// histogram (13 default buckets + Inf + sum + count) = 21 series.
	if got, want := e.SeriesCount(), 5+len(DefBuckets)+1+2; got != want {
		t.Errorf("SeriesCount = %d, want %d", got, want)
	}
	for _, name := range []string{"jobs_total", "queue_depth", "build_info",
		"cache_hits_total", "latency_seconds_bucket", "latency_seconds_sum", "latency_seconds_count"} {
		if !e.Has(name) {
			t.Errorf("Has(%q) = false after round trip", name)
		}
	}
	fam := e.Families["build_info"]
	if fam == nil || len(fam.Samples) != 1 {
		t.Fatalf("build_info family missing after round trip")
	}
	wantVal := `quo"te and back\slash and` + "\nnewline"
	if got := fam.Samples[0].Labels["version"]; got != wantVal {
		t.Errorf("label escaping did not round-trip: got %q, want %q", got, wantVal)
	}
	if fam.Help != `build metadata\nwith a newline` {
		t.Errorf("HELP escaping: got %q", fam.Help)
	}
	// The histogram's cumulative +Inf bucket must equal its count of 4
	// (checkHistogram enforced this during parse; spot-check the value).
	for _, s := range e.Families["latency_seconds"].Samples {
		if s.Name == "latency_seconds_count" && s.Value != 4 {
			t.Errorf("latency_seconds_count = %v, want 4", s.Value)
		}
	}
}

func TestParseExpositionRejects(t *testing.T) {
	cases := []struct{ name, in string }{
		{"sample without TYPE", "foo 1\n"},
		{"TYPE without HELP", "# TYPE foo counter\nfoo 1\n"},
		{"duplicate HELP", "# HELP foo a\n# HELP foo b\n# TYPE foo counter\nfoo 1\n"},
		{"duplicate TYPE", "# HELP foo a\n# TYPE foo counter\n# TYPE foo counter\nfoo 1\n"},
		{"TYPE after samples", "# HELP foo a\n# TYPE foo counter\nfoo 1\n# HELP bar b\n# TYPE foo gauge\n"},
		{"unknown TYPE", "# HELP foo a\n# TYPE foo timer\nfoo 1\n"},
		{"negative counter", "# HELP foo a\n# TYPE foo counter\nfoo -1\n"},
		{"bad metric name", "# HELP foo a\n# TYPE foo counter\nfo-o 1\n"},
		{"bad value", "# HELP foo a\n# TYPE foo counter\nfoo one\n"},
		{"unquoted label", "# HELP foo a\n# TYPE foo counter\nfoo{k=v} 1\n"},
		{"unterminated label", `# HELP foo a
# TYPE foo counter
foo{k="v 1
`},
		{"duplicate label", `# HELP foo a
# TYPE foo counter
foo{k="a",k="b"} 1
`},
		{"bucket without le", "# HELP h a\n# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n"},
		{"buckets out of order", `# HELP h a
# TYPE h histogram
h_bucket{le="2"} 1
h_bucket{le="1"} 1
h_bucket{le="+Inf"} 2
h_sum 3
h_count 2
`},
		{"non-monotone cumulative counts", `# HELP h a
# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 3
h_count 5
`},
		{"missing +Inf bucket", `# HELP h a
# TYPE h histogram
h_bucket{le="1"} 1
h_sum 1
h_count 1
`},
		{"Inf bucket != count", `# HELP h a
# TYPE h histogram
h_bucket{le="+Inf"} 2
h_sum 1
h_count 3
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseExposition(strings.NewReader(tc.in)); err == nil {
				t.Errorf("ParseExposition accepted malformed input:\n%s", tc.in)
			}
		})
	}
}

func TestParseExpositionTimestampTolerated(t *testing.T) {
	in := "# HELP foo a\n# TYPE foo gauge\nfoo{k=\"v\"} 1.5 1712345678\n"
	e, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatalf("timestamped sample rejected: %v", err)
	}
	if e.Samples[0].Value != 1.5 {
		t.Errorf("value = %v, want 1.5", e.Samples[0].Value)
	}
}

// TestParseExpositionBytes: parsing a small exposition allocates in
// proportion to its lines, not the 1 MiB line limit — the scanner's
// buffer grows on demand.
func TestParseExpositionBytes(t *testing.T) {
	const in = "# HELP foo a\n# TYPE foo counter\nfoo 1\n"
	const runs = 100
	parse := func() {
		if _, err := ParseExposition(strings.NewReader(in)); err != nil {
			t.Fatal(err)
		}
	}
	parse() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		parse()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 64<<10 {
		t.Errorf("ParseExposition of a 3-line exposition allocates %d B/op, want < 64 KiB", got)
	} else {
		t.Logf("%d B/op", got)
	}
}

// TestParseExpositionLongLine: a line past the 1 MiB limit is an error,
// not a truncated parse.
func TestParseExpositionLongLine(t *testing.T) {
	in := "# HELP foo " + strings.Repeat("a", 1<<20) + "\n# TYPE foo counter\nfoo 1\n"
	if _, err := ParseExposition(strings.NewReader(in)); err == nil {
		t.Fatal("ParseExposition accepted a line longer than 1 MiB")
	}
}

// TestRecordPathAllocations: the record path must not allocate — these
// instruments sit inside the mining engine's zero-alloc hot loops.
func TestRecordPathAllocations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h", "h", nil)
	if avg := testing.AllocsPerRun(100, func() { c.Add(1) }); avg != 0 {
		t.Errorf("Counter.Add allocates %v times per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { g.Set(3.2); g.Add(-1) }); avg != 0 {
		t.Errorf("Gauge.Set/Add allocates %v times per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { h.Observe(0.073) }); avg != 0 {
		t.Errorf("Histogram.Observe allocates %v times per run, want 0", avg)
	}
}

// TestConcurrentRecording: hammer one counter, gauge, and histogram from
// many goroutines; folded totals must be exact (run under -race in CI).
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "h")
	g := r.Gauge("gg", "h")
	h := r.Histogram("hh", "h", []float64{0.5})
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i & 1)) // alternates both sides of the bound
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %v, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %v, want %d", got, workers*perWorker)
	}
	if got := h.Sum(); got != workers*perWorker/2 {
		t.Errorf("histogram sum = %v, want %d", got, workers*perWorker/2)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"}, {3, "3"}, {-7, "-7"}, {2.5, "2.5"}, {1e15, "1e+15"},
		{math.Inf(1), "+Inf"},
	}
	for _, tc := range cases {
		got := formatFloat(tc.v)
		if math.IsInf(tc.v, 1) {
			// formatFloat itself prints Inf via strconv; the exposition
			// writer emits +Inf only through the histogram le label, so
			// accept strconv's form here.
			if got != "+Inf" && got != "Inf" {
				t.Errorf("formatFloat(+Inf) = %q", got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// TestSigNoSeparatorCollision: label values containing the pair
// delimiters must not collide into one child instrument.
func TestSigNoSeparatorCollision(t *testing.T) {
	a := sig([]Label{L("a", "x"), L("b", "y")})
	b := sig([]Label{L("a", "x,b=1:y")})
	if a == b {
		t.Fatalf("sig collision: %q vs %q", a, b)
	}
	r := NewRegistry()
	c1 := r.Counter("sep_total", "h", L("a", "x"), L("b", "y"))
	c2 := r.Counter("sep_total", "h", L("a", "x,b=1:y"))
	if c1 == c2 {
		t.Fatal("distinct label sets share one counter child")
	}
}

// TestCounterCallbackCollisionPanics: asking for a writable counter on a
// name+labels first registered via CounterFunc must fail loudly at the
// registration site, not as a nil-pointer panic at the first Add.
func TestCounterCallbackCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("cbc_total", "h", func() float64 { return 1 })
	defer func() {
		if recover() == nil {
			t.Fatal("Counter on a CounterFunc name did not panic")
		}
	}()
	r.Counter("cbc_total", "h")
}

// TestScrapeDuringRegistration: a /metrics render concurrent with
// first-seen label registration must not trip the runtime's concurrent
// map access detector (run under -race in CI).
func TestScrapeDuringRegistration(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			r.Counter("churn_total", "h", L("i", string(rune('a'+i%26)))).Inc()
			r.Histogram("churn_seconds", "h", nil, L("i", string(rune('a'+i%26)))).Observe(0.01)
		}
	}()
	for i := 0; i < 200; i++ {
		if err := r.WritePrometheus(&strings.Builder{}); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
	}
	close(done)
	wg.Wait()
}
