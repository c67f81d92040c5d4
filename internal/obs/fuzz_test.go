package obs

import (
	"bytes"
	"testing"
)

// FuzzParseExposition feeds arbitrary bytes to the exposition parser that
// promcheck and the tests hold every /metrics scrape to. It must never
// panic: whatever the bytes, it returns an exposition or an error.
func FuzzParseExposition(f *testing.F) {
	r := NewRegistry()
	r.Counter("jobs_total", "jobs submitted", L("state", "done")).Add(3)
	r.Gauge("queue_depth", "queue depth").Set(7)
	r.GaugeFunc("build_info", "build metadata", func() float64 { return 1 }, L("version", `quo"te\`+"\n"))
	r.Histogram("latency_seconds", "request latency", nil, L("route", "/v1/jobs")).Observe(0.3)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		f.Fatal(err)
	}
	f.Add(b.Bytes())
	f.Add([]byte("# HELP foo a\n# TYPE foo gauge\nfoo{k=\"v\"} 1.5 1712345678\n"))
	f.Add([]byte("# HELP h a\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 3\nh_count 5\n"))
	f.Add([]byte("# HELP foo a\n# TYPE foo counter\nfoo{k=\"v 1\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		e, err := ParseExposition(bytes.NewReader(in))
		if err == nil && e == nil {
			t.Fatal("no exposition and no error")
		}
	})
}
