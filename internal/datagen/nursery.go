package datagen

import (
	"repro/internal/relation"
)

// Nursery attribute metadata: the UCI Nursery dataset is, by construction,
// the full cartesian product of eight categorical attributes describing a
// nursery-school application, plus a class attribute derived from a
// hierarchical decision model (domain sizes 3,5,4,4,3,2,3,3,5 — exactly
// the sizes the paper quotes in Sec. 8.1). The 12960 = 3·5·4·4·3·2·3·3
// tuples are therefore fully reproducible; only the class rule is an
// approximation of the original DEX model.
var nurseryDomains = []struct {
	name   string
	values []string
}{
	{"parents", []string{"usual", "pretentious", "great_pret"}},
	{"has_nurs", []string{"proper", "less_proper", "improper", "critical", "very_crit"}},
	{"form", []string{"complete", "completed", "incomplete", "foster"}},
	{"children", []string{"1", "2", "3", "more"}},
	{"housing", []string{"convenient", "less_conv", "critical"}},
	{"finance", []string{"convenient", "inconv"}},
	{"social", []string{"nonprob", "slightly_prob", "problematic"}},
	{"health", []string{"recommended", "priority", "not_recom"}},
}

// NurseryRows is the size of the reconstructed Nursery relation.
const NurseryRows = 12960

// Nursery reconstructs the Sec. 8.1 use-case dataset: all 12960
// combinations of the eight application attributes plus the derived class
// column. Attributes are named A..I as in the paper ("we renamed the
// attributes A...I for brevity"). The relation is deterministic.
func Nursery() *relation.Relation {
	names := make([]string, 9)
	for j := range names {
		names[j] = string(rune('A' + j))
	}
	b := relation.NewBuilder(names)
	idx := make([]int, 8)
	for {
		row := make([]string, 9)
		for j := 0; j < 8; j++ {
			row[j] = nurseryDomains[j].values[idx[j]]
		}
		row[8] = nurseryClass(idx)
		b.AddRow(row)
		// Odometer increment over the 8 domains.
		j := 7
		for ; j >= 0; j-- {
			idx[j]++
			if idx[j] < len(nurseryDomains[j].values) {
				break
			}
			idx[j] = 0
		}
		if j < 0 {
			break
		}
	}
	return b.Relation()
}

// nurseryClass approximates the hierarchical DEX ranking model behind the
// original dataset: applications with unacceptable health are rejected
// outright; otherwise occupational, structural/financial and social
// penalties accumulate into a priority score. The rule is deterministic in
// the eight inputs (so class is an exact FD of them, as in the original)
// and produces the same qualitative class skew (not_recom = 1/3 of rows;
// "recommend" vanishingly rare; priority/spec_prior splitting the bulk).
func nurseryClass(idx []int) string {
	parents, hasNurs, form, children := idx[0], idx[1], idx[2], idx[3]
	housing, finance, social, health := idx[4], idx[5], idx[6], idx[7]

	if health == 2 { // not_recom
		return "not_recom"
	}
	// Occupational standing: parents' situation and nursery adequacy.
	employ := parents + hasNurs // 0..6
	// Family structure and finances.
	structure := form + children // 0..6
	if housing == 2 {
		structure += 2
	} else {
		structure += housing
	}
	structure += finance // +0..1
	// Social and health standing.
	socHealth := social + health // 0..3

	score := 2*employ + structure + 3*socHealth
	switch {
	case score == 0:
		return "recommend"
	case score <= 3:
		return "very_recom"
	case score <= 12:
		return "priority"
	default:
		return "spec_prior"
	}
}
