package core

import (
	"sort"
	"testing"
)

func minedSchemes(t *testing.T, eps float64) []*Scheme {
	t.Helper()
	m := newMiner(paperRWithRedTuple(), eps)
	schemes, _ := m.MineSchemes(0)
	if len(schemes) < 3 {
		t.Fatalf("need several schemes, got %d", len(schemes))
	}
	return schemes
}

// rankSchemes sorts schemes in place by the criterion, as cmd/maimon
// orders its table.
func rankSchemes(schemes []*Scheme, crit RankCriterion) {
	sort.Slice(schemes, func(i, j int) bool { return crit.Less(schemes[i], schemes[j]) })
}

func TestRankByJ(t *testing.T) {
	schemes := minedSchemes(t, 0.3)
	rankSchemes(schemes, RankByJ)
	for i := 1; i < len(schemes); i++ {
		if schemes[i-1].J > schemes[i].J {
			t.Fatalf("not sorted by J at %d", i)
		}
	}
}

func TestRankByRelations(t *testing.T) {
	schemes := minedSchemes(t, 0.3)
	rankSchemes(schemes, RankByRelations)
	for i := 1; i < len(schemes); i++ {
		if schemes[i-1].M() < schemes[i].M() {
			t.Fatalf("not sorted by #relations at %d", i)
		}
	}
}

func TestRankByWidth(t *testing.T) {
	schemes := minedSchemes(t, 0.3)
	rankSchemes(schemes, RankByWidth)
	for i := 1; i < len(schemes); i++ {
		if schemes[i-1].Schema.Width() > schemes[i].Schema.Width() {
			t.Fatalf("not sorted by width at %d", i)
		}
	}
}
