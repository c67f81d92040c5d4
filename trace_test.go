package maimon

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/datagen"
)

// TestTraceDeterministicAcrossWorkers pins the trace contract the obs
// package documents: every count in a mine trace — phase oracle deltas,
// stage calls/items/J-evals/candidates — is identical at any worker
// fan-out; only the durations differ. Fresh sessions per fan-out keep the
// entropy memo cold so the oracle deltas are comparable.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	planted, _, err := datagen.Planted(datagen.PlantedSpec{
		Bags: datagen.ChainBags(10, 4, 1), Seed: 23, RootTuples: 10, ExtPerSep: 2, NoiseCells: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	rels := map[string]*Relation{
		"planted": planted,
		"nursery": Nursery().Head(1200),
	}
	ctx := context.Background()
	for name, r := range rels {
		mine := func(workers int) MineTrace {
			s, err := Open(r)
			if err != nil {
				t.Fatal(err)
			}
			var tr MineTrace
			if _, _, err := s.MineSchemes(ctx, WithEpsilon(0.1), WithMaxSchemes(30), WithWorkers(workers), WithTrace(&tr)); err != nil {
				t.Fatal(err)
			}
			if len(tr.Phases) == 0 {
				t.Fatalf("%s workers=%d: WithTrace trace empty after MineSchemes", name, workers)
			}
			return tr.CountsOnly()
		}
		serial := mine(1)
		parallel := mine(8)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: trace counts differ between workers=1 and workers=8\nserial:   %+v\nparallel: %+v",
				name, serial, parallel)
		}
	}
}

// TestTraceShape checks the stage decomposition of a full MineSchemes
// trace: an "mvds" phase carrying the minsep and fullmvd stages, then a
// "schemes" phase carrying graph and synth, with coherent counters.
func TestTraceShape(t *testing.T) {
	s, err := Open(Nursery().Head(800))
	if err != nil {
		t.Fatal(err)
	}
	var tr MineTrace
	schemes, res, err := s.MineSchemes(context.Background(), WithEpsilon(0.1), WithMaxSchemes(20), WithTrace(&tr))
	if err != nil {
		t.Fatal(err)
	}
	mvds := tr.Phase("mvds")
	if mvds == nil {
		t.Fatal("trace has no mvds phase")
	}
	if mvds.Oracle.HCalls <= 0 || mvds.Oracle.HComputes <= 0 {
		t.Errorf("mvds oracle delta empty: %+v", mvds.Oracle)
	}
	if mvds.Oracle.HComputes+mvds.Oracle.HCached != mvds.Oracle.HCalls {
		t.Errorf("mvds oracle: computes %d + cached %d != calls %d",
			mvds.Oracle.HComputes, mvds.Oracle.HCached, mvds.Oracle.HCalls)
	}
	stage := func(p *PhaseTrace, name string) *StageTrace {
		for i := range p.Stages {
			if p.Stages[i].Name == name {
				return &p.Stages[i]
			}
		}
		t.Fatalf("phase %s has no %q stage (stages: %+v)", p.Name, name, p.Stages)
		return nil
	}
	minsep := stage(mvds, "minsep")
	if minsep.Calls <= 0 || minsep.Items <= 0 || minsep.JEvals <= 0 {
		t.Errorf("minsep stage empty: %+v", *minsep)
	}
	fullmvd := stage(mvds, "fullmvd")
	if fullmvd.Calls <= 0 || fullmvd.Items < int64(len(res.MVDs)) {
		t.Errorf("fullmvd stage: %+v, want Items >= %d mined MVDs", *fullmvd, len(res.MVDs))
	}
	sch := tr.Phase("schemes")
	if sch == nil {
		t.Fatal("trace has no schemes phase")
	}
	graph := stage(sch, "graph")
	if graph.Calls != 1 || graph.Items != int64(len(res.MVDs)) {
		t.Errorf("graph stage: %+v, want 1 call over %d MVDs", *graph, len(res.MVDs))
	}
	synth := stage(sch, "synth")
	if synth.Items != int64(len(schemes)) {
		t.Errorf("synth stage emitted %d, want %d schemes", synth.Items, len(schemes))
	}
}

// TestWithTraceThreading: a caller-owned trace passed per mining call is
// filled by it, and a second call replaces what the first left.
func TestWithTraceThreading(t *testing.T) {
	s, err := Open(Nursery().Head(600))
	if err != nil {
		t.Fatal(err)
	}
	var tr MineTrace
	if _, err := s.MineMVDs(context.Background(), WithEpsilon(0.1), WithTrace(&tr)); err != nil {
		t.Fatal(err)
	}
	if len(tr.Phases) == 0 {
		t.Fatal("WithTrace trace not filled by MineMVDs")
	}
	first := len(tr.Phases)
	if _, err := s.MineMVDs(context.Background(), WithEpsilon(0.1), WithTrace(&tr)); err != nil {
		t.Fatal(err)
	}
	if len(tr.Phases) != first {
		t.Errorf("threaded trace not reset between calls: %d phases, want %d", len(tr.Phases), first)
	}
}

// TestBudgetedFreshCountWorkerInvariant: under an entropy budget that
// makes the memo hashed and evicting, the mining phase still counts each
// entropy once at any fan-out — the workers read one another's views
// before the memo — so its fresh H (HCalls − HCached over the phase), the
// MVDs and the schemes are identical at workers 1, 2 and 4. The schemes
// phase reads the mining phase's views too, so its fresh H is the same at
// every fan-out as well, though the memo's contents after eviction follow
// the order the workers published in.
func TestBudgetedFreshCountWorkerInvariant(t *testing.T) {
	r, err := datagen.Ladder("wide")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		fresh, schemeFresh int64
		mvds               []MVD
		schemes            []string
	}
	mine := func(workers int) outcome {
		s, err := Open(r, WithEntropyBudget(48<<10))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var tr MineTrace
		schemes, res, err := s.MineSchemes(context.Background(), WithEpsilon(0.1), WithMaxSchemes(100), WithWorkers(workers), WithTrace(&tr))
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.MemoEvictions == 0 {
			t.Fatalf("workers=%d: the 48 KiB memo evicted nothing", workers)
		}
		ph, sp := tr.Phase("mvds"), tr.Phase("schemes")
		if ph == nil || sp == nil {
			t.Fatalf("workers=%d: trace lacks the mvds or the schemes phase", workers)
		}
		out := outcome{fresh: ph.Oracle.HComputes, schemeFresh: sp.Oracle.HComputes, mvds: res.MVDs}
		for _, sc := range schemes {
			out.schemes = append(out.schemes, sc.Schema.String())
		}
		return out
	}
	serial := mine(1)
	for _, workers := range []int{2, 4} {
		got := mine(workers)
		if got.fresh != serial.fresh {
			t.Errorf("workers=%d: %d fresh H in the mining phase, workers=1 counted %d", workers, got.fresh, serial.fresh)
		}
		if got.schemeFresh != serial.schemeFresh {
			t.Errorf("workers=%d: %d fresh H in the scheme phase, workers=1 counted %d", workers, got.schemeFresh, serial.schemeFresh)
		}
		if !reflect.DeepEqual(got.mvds, serial.mvds) {
			t.Errorf("workers=%d: %d MVDs differ from workers=1's %d", workers, len(got.mvds), len(serial.mvds))
		}
		if !reflect.DeepEqual(got.schemes, serial.schemes) {
			t.Errorf("workers=%d: schemes differ from workers=1's", workers)
		}
	}
}
