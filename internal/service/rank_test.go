package service

import (
	"bytes"
	"context"
	"log/slog"
	"testing"
	"time"

	maimon "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/wire"
)

// TestRankSchemesStops ranks a job's mined schemes under a live context,
// a cancelled one and an expired one. Every scheme keeps its entry each
// time. Under a done context none has S or E, nothing is logged as a
// failed metric, and the error is the one a mine reports for the same
// stop — context.Canceled, or core.ErrInterrupted for a deadline — so a
// job whose ranking was cut short is never served as complete.
func TestRankSchemesStops(t *testing.T) {
	sess, err := maimon.Open(datagen.Nursery().Head(800))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	schemes, _, err := sess.MineSchemes(context.Background(), maimon.WithEpsilon(0.2))
	if err != nil || len(schemes) == 0 {
		t.Fatalf("mined %d schemes: %v", len(schemes), err)
	}
	var logs bytes.Buffer
	m := NewManager(NewRegistry(), Config{Workers: 1, Telemetry: NewTelemetry(nil, slog.New(slog.NewTextHandler(&logs, nil)))})
	defer m.Close()
	job := newJob("j-1", wire.JobRequest{Workers: 2}, context.Background())

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		want error
	}{{"live", context.Background(), nil}, {"cancelled", cancelled, context.Canceled}, {"expired", expired, core.ErrInterrupted}} {
		out, err := m.rankSchemes(c.ctx, sess, job, schemes)
		if err != c.want || len(out) != len(schemes) {
			t.Fatalf("%s: %d of %d schemes, error %v, want %v", c.name, len(out), len(schemes), err, c.want)
		}
		for i, sr := range out {
			var want maimon.Metrics
			if c.want == nil {
				if want, err = sess.Analyze(schemes[i].Schema); err != nil {
					t.Fatal(err)
				}
			}
			if sr.SavingsPct != want.SavingsPct || sr.SpuriousPct != want.SpuriousPct {
				t.Fatalf("%s: %s has S %v, E %v, want %v, %v", c.name, sr.Schema, sr.SavingsPct, sr.SpuriousPct, want.SavingsPct, want.SpuriousPct)
			}
		}
	}
	if logs.Len() != 0 {
		t.Fatalf("a stopped ranking logged:\n%s", logs.String())
	}
}
