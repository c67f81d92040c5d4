package obs

import (
	"strings"
	"testing"
	"time"
)

func sampleTrace() *MineTrace {
	return &MineTrace{Phases: []PhaseTrace{
		{
			Name: "mvds", Wall: 3 * time.Second,
			Oracle: OracleDelta{HCalls: 100, HComputes: 40, HCached: 60, MICalls: 90,
				PLIHits: 30, PLIMisses: 40, Intersects: 38, EntropyOnly: 2, BytesTouched: 1 << 20},
			Stages: []StageTrace{
				{Name: "minsep", CPU: 2 * time.Second, Calls: 6, Items: 12, JEvals: 50, Candidates: 80},
				{Name: "fullmvd", CPU: time.Second, Calls: 12, Items: 9, JEvals: 40, Candidates: 60},
			},
		},
		{
			Name: "schemes", Wall: time.Second,
			Stages: []StageTrace{
				{Name: "graph", CPU: time.Millisecond, Calls: 1, Items: 9, Candidates: 4},
				{Name: "synth", CPU: 2 * time.Millisecond, Calls: 3, Items: 3, Candidates: 3},
			},
		},
	}}
}

func TestTracePhaseLookup(t *testing.T) {
	tr := sampleTrace()
	if p := tr.Phase("mvds"); p == nil || p.Oracle.HCalls != 100 {
		t.Errorf("Phase(\"mvds\") = %+v", p)
	}
	if p := tr.Phase("minseps"); p != nil {
		t.Errorf("Phase(\"minseps\") = %+v, want nil", p)
	}
}

func TestTraceCountsOnly(t *testing.T) {
	tr := sampleTrace()
	co := tr.CountsOnly()
	for i, p := range co.Phases {
		if p.Wall != 0 {
			t.Errorf("phase %d Wall = %v after CountsOnly", i, p.Wall)
		}
		for j, s := range p.Stages {
			if s.CPU != 0 {
				t.Errorf("phase %d stage %d CPU = %v after CountsOnly", i, j, s.CPU)
			}
		}
	}
	// Counts survive, the scheduling-dependent PLI split is folded into
	// its invariant sum, and the original is untouched.
	if co.Phases[0].Oracle.HCalls != 100 || co.Phases[0].Stages[0].Items != 12 {
		t.Error("CountsOnly dropped counters")
	}
	if co.Phases[0].Oracle.PLIHits != 70 || co.Phases[0].Oracle.PLIMisses != 0 {
		t.Errorf("CountsOnly did not fold the PLI split: hits=%d misses=%d, want 70/0",
			co.Phases[0].Oracle.PLIHits, co.Phases[0].Oracle.PLIMisses)
	}
	if d := co.Phases[0].Oracle; d.Intersects != 0 || d.EntropyOnly != 0 || d.BytesTouched != 0 {
		t.Errorf("CountsOnly kept scheduling-dependent PLI work counts: %+v", d)
	}
	if tr.Phases[0].Oracle.PLIHits != 30 || tr.Phases[0].Oracle.PLIMisses != 40 {
		t.Error("CountsOnly mutated the source oracle delta")
	}
	if tr.Phases[0].Wall != 3*time.Second || tr.Phases[0].Stages[0].CPU != 2*time.Second {
		t.Error("CountsOnly mutated the source trace")
	}
	// Two traces of the same mine with different durations and a
	// different PLI scheduling detail must compare equal through
	// CountsOnly — the invariant the root-level determinism test leans on.
	tr2 := sampleTrace()
	tr2.Phases[0].Wall = time.Minute
	tr2.Phases[1].Stages[0].CPU = time.Hour
	tr2.Phases[0].Oracle.PLIHits, tr2.Phases[0].Oracle.PLIMisses = 29, 41
	tr2.Phases[0].Oracle.Intersects = 39
	tr2.Phases[0].Oracle.BytesTouched = 2 << 20
	if a, b := tr.CountsOnly(), tr2.CountsOnly(); !tracesEqual(&a, &b) {
		t.Error("CountsOnly traces differ despite identical counters")
	}
}

func tracesEqual(a, b *MineTrace) bool {
	if len(a.Phases) != len(b.Phases) {
		return false
	}
	for i := range a.Phases {
		p, q := a.Phases[i], b.Phases[i]
		if p.Name != q.Name || p.Wall != q.Wall || p.Oracle != q.Oracle || len(p.Stages) != len(q.Stages) {
			return false
		}
		for j := range p.Stages {
			if p.Stages[j] != q.Stages[j] {
				return false
			}
		}
	}
	return true
}

func TestTraceString(t *testing.T) {
	out := sampleTrace().String()
	for _, want := range []string{"phase mvds", "phase schemes", "minsep", "fullmvd",
		"graph", "synth", "40 computed / 60 cached of 100 calls", "1.0 MiB touched"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace String() missing %q:\n%s", want, out)
		}
	}
}
