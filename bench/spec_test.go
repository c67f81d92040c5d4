package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json; unknown keys are an error.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and spec.go name the same workloads and metrics, in the
// same order, within the driver's limits.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b benchmarkFile
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %q paths %q", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go (limit 2..8)", n, len(workloads))
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go (limit 1..16)", n, len(endToEnd))
	}
	if n := len(b.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (limit 1..128)", n, len(perLayer))
	}
	used := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		name(m.Name)
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end %s: bound %g or unit %q out of range", m.Name, m.Bound, m.Unit)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// The end-to-end pass emits exactly the metrics spec.go names.
func TestEndToEndPassEmitsEverySpecMetric(t *testing.T) {
	m := &measured{Setup: []float64{1}, Cal: []float64{calRef}, Ops: []opSample{{1, 1, 1, 1}}, Latency: []float64{1}}
	for _, w := range append(append([]workload(nil), workloads...), extraWorkloads...) {
		got := m.metrics(w)
		if len(got) != len(endToEnd) {
			t.Errorf("%s: %d metrics emitted, %d specified", w.Name, len(got), len(endToEnd))
		}
		for _, s := range endToEnd {
			if v, ok := got[s.Name]; !ok || v == 0 {
				t.Errorf("%s: %s missing or zero", w.Name, s.Name)
			}
		}
	}
}

// The traced pass writes its values as v["layer.metric"]; every such name
// must be specified and every specified name must be written somewhere.
func TestTracedPassEmitsEverySpecMetric(t *testing.T) {
	src, err := os.ReadFile("trace.go")
	if err != nil {
		t.Fatal(err)
	}
	written := map[string]bool{}
	for _, m := range regexp.MustCompile(`v\["([^"]+)"`).FindAllSubmatch(src, -1) {
		written[string(m[1])] = true
	}
	specified := map[string]bool{}
	for _, s := range perLayer {
		specified[s.Name] = true
		if !written[s.Name] {
			t.Errorf("per-layer metric %s is specified but the traced pass never writes it", s.Name)
		}
	}
	var extra []string
	for n := range written {
		if !specified[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("the traced pass writes unspecified metrics: %v", extra)
	}
}

// The workloads run by name only are found by name and never collide with
// the driver's.
func TestExtraWorkloadsAreFoundByName(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads {
		seen[w.Name] = true
	}
	for _, w := range extraWorkloads {
		if seen[w.Name] {
			t.Errorf("%s is in both lists", w.Name)
		}
		if got, ok := findWorkload(w.Name); !ok || got.Name != w.Name || !nameRE.MatchString(w.Name) {
			t.Errorf("findWorkload(%q) = %v, %v", w.Name, got.Name, ok)
		}
	}
	if _, ok := findWorkload("nope"); ok {
		t.Error("unknown workload found")
	}
}
