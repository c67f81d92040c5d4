package core

import "testing"

func minedSchemes(t *testing.T, eps float64) []*Scheme {
	t.Helper()
	m := newMiner(paperRWithRedTuple(), eps)
	schemes, _ := m.MineSchemes(0)
	if len(schemes) < 3 {
		t.Fatalf("need several schemes, got %d", len(schemes))
	}
	return schemes
}

func TestRankByJ(t *testing.T) {
	schemes := minedSchemes(t, 0.3)
	RankSchemes(schemes, RankByJ)
	for i := 1; i < len(schemes); i++ {
		if schemes[i-1].J > schemes[i].J {
			t.Fatalf("not sorted by J at %d", i)
		}
	}
}

func TestRankByRelations(t *testing.T) {
	schemes := minedSchemes(t, 0.3)
	RankSchemes(schemes, RankByRelations)
	for i := 1; i < len(schemes); i++ {
		if schemes[i-1].M() < schemes[i].M() {
			t.Fatalf("not sorted by #relations at %d", i)
		}
	}
}

func TestRankByWidth(t *testing.T) {
	schemes := minedSchemes(t, 0.3)
	RankSchemes(schemes, RankByWidth)
	for i := 1; i < len(schemes); i++ {
		if schemes[i-1].Schema.Width() > schemes[i].Schema.Width() {
			t.Fatalf("not sorted by width at %d", i)
		}
	}
}

func TestRankByIntersectionWidth(t *testing.T) {
	schemes := minedSchemes(t, 0.3)
	RankSchemes(schemes, RankByIntersectionWidth)
	for i := 1; i < len(schemes); i++ {
		a := schemes[i-1].Schema.IntersectionWidth()
		b := schemes[i].Schema.IntersectionWidth()
		if a > b {
			t.Fatalf("not sorted by intWidth at %d", i)
		}
	}
}

func TestTopKMatchesFullSort(t *testing.T) {
	schemes := minedSchemes(t, 0.3)
	for _, crit := range []RankCriterion{RankByJ, RankByRelations, RankByWidth} {
		full := append([]*Scheme(nil), schemes...)
		RankSchemes(full, crit)
		top := NewTopK(3, crit)
		for _, s := range schemes {
			top.Add(s)
		}
		best := top.Best()
		if len(best) != 3 {
			t.Fatalf("TopK kept %d", len(best))
		}
		for i := range best {
			if best[i].Schema.Fingerprint() != full[i].Schema.Fingerprint() {
				t.Fatalf("crit %v: TopK[%d] differs from sorted[%d]", crit, i, i)
			}
		}
	}
}

func TestTopKDegenerateK(t *testing.T) {
	top := NewTopK(0, RankByJ)
	schemes := minedSchemes(t, 0.3)
	for _, s := range schemes {
		top.Add(s)
	}
	if len(top.Best()) != 1 {
		t.Fatalf("k<1 should clamp to 1, got %d", len(top.Best()))
	}
}

func TestMineSchemesRanked(t *testing.T) {
	m := newMiner(paperRWithRedTuple(), 0.3)
	best, res := m.MineSchemesRanked(5, RankByRelations)
	if res == nil || len(best) == 0 {
		t.Fatal("empty ranked result")
	}
	for i := 1; i < len(best); i++ {
		if best[i-1].M() < best[i].M() {
			t.Fatal("ranked output not ordered")
		}
	}
}

func TestFilterByJ(t *testing.T) {
	schemes := minedSchemes(t, 0.3)
	strict := FilterByJ(schemes, 0.1)
	for _, s := range strict {
		if s.J > 0.1+1e-9 {
			t.Fatalf("filter kept J=%v", s.J)
		}
	}
	if len(FilterByJ(schemes, 1e18)) != len(schemes) {
		t.Fatal("permissive filter dropped schemes")
	}
}
