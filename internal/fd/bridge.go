package fd

import (
	"repro/internal/bitset"
	"repro/internal/mvd"
)

// ToMVD lifts an exact FD X→A over an n-attribute relation to the MVD it
// implies: X ↠ A | (Ω \ X \ A). This is the formal sense in which FDs are
// special cases of MVDs (paper Sec. 1). It returns ok = false when the
// remainder is empty (the FD covers the whole signature, leaving no second
// dependent).
func ToMVD(f FD, n int) (mvd.MVD, bool) {
	rest := bitset.Full(n).Diff(f.LHS).Remove(f.RHS)
	if rest.IsEmpty() {
		return mvd.MVD{}, false
	}
	m, err := mvd.New(f.LHS, []bitset.AttrSet{bitset.Single(f.RHS), rest})
	if err != nil {
		return mvd.MVD{}, false
	}
	return m, true
}
