package core

import "slices"

// Ranked schema generation is the paper's stated future work (Sec. 9):
// "we intend to investigate acyclic schema generation in ranked order.
// The categories to rank on may be the extent of decomposition (e.g.,
// width of the schema), or other measures." Ranking a mined set is
// decompose.AnalyzeAll for the metrics, then a sort by a RankCriterion.

// RankCriterion orders schemes.
type RankCriterion int

const (
	// RankByJ prefers lower J (closer to exact).
	RankByJ RankCriterion = iota
	// RankByRelations prefers more relations (deeper decomposition).
	RankByRelations
	// RankByWidth prefers smaller width (treewidth+1 of the schema).
	RankByWidth
)

// Less reports whether a ranks strictly before b under the criterion,
// with deterministic tie-breaking (J, then the relations word by word).
func (c RankCriterion) Less(a, b *Scheme) bool {
	switch c {
	case RankByRelations:
		if a.M() != b.M() {
			return a.M() > b.M()
		}
	case RankByWidth:
		if wa, wb := a.Schema.Width(), b.Schema.Width(); wa != wb {
			return wa < wb
		}
	}
	if a.J != b.J {
		return a.J < b.J
	}
	return slices.Compare(a.Schema.Relations, b.Schema.Relations) < 0
}
