package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
)

// DatasetSpec describes one Table-2 dataset and its synthetic analog.
// PaperRows/PaperCols are the sizes the paper reports; Rows is the scaled
// default used by the reproduction. PaperRuntime and
// PaperFullMVDs reproduce the Table-2 reference columns ("TL" = the
// paper's 5-hour time limit was hit, "NA" = no count reported).
type DatasetSpec struct {
	Name           string
	PaperCols      int
	PaperRows      int
	PaperRuntime   string // seconds at ε = 0, or "TL"
	PaperFullMVDs  string // full MVD count at ε = 0, or "NA"
	Rows           int    // scaled row count of the analog
	structureWidth int    // planted bag width
	noise          float64
	seed           int64
}

// Registry returns the 20 Table-2 datasets in the paper's order, each with
// a deterministic synthetic analog generator profile. The scale parameter
// caps rows (0 means the default cap of 10000).
func Registry(scale int) []DatasetSpec {
	if scale <= 0 {
		scale = 10000
	}
	specs := []DatasetSpec{
		{Name: "Ditag Feature", PaperCols: 13, PaperRows: 3960124, PaperRuntime: "TL", PaperFullMVDs: "NA", structureWidth: 4, noise: 0.02},
		{Name: "Four Square (Spots)", PaperCols: 15, PaperRows: 973516, PaperRuntime: "17017", PaperFullMVDs: "105", structureWidth: 5, noise: 0.01},
		{Name: "Image", PaperCols: 12, PaperRows: 777676, PaperRuntime: "3747", PaperFullMVDs: "151", structureWidth: 5, noise: 0.01},
		{Name: "FD_Reduced_30", PaperCols: 30, PaperRows: 250000, PaperRuntime: "8024", PaperFullMVDs: "21", structureWidth: 6, noise: 0.005},
		{Name: "FD_Reduced_15", PaperCols: 15, PaperRows: 250000, PaperRuntime: "1006", PaperFullMVDs: "21", structureWidth: 6, noise: 0.005},
		{Name: "Census", PaperCols: 42, PaperRows: 199524, PaperRuntime: "TL", PaperFullMVDs: "NA", structureWidth: 5, noise: 0.02},
		{Name: "SG_Bioentry", PaperCols: 7, PaperRows: 184292, PaperRuntime: "101", PaperFullMVDs: "3", structureWidth: 4, noise: 0.005},
		{Name: "Atom Sites", PaperCols: 26, PaperRows: 160000, PaperRuntime: "TL", PaperFullMVDs: "242", structureWidth: 5, noise: 0.015},
		{Name: "Classification", PaperCols: 12, PaperRows: 70859, PaperRuntime: "1327", PaperFullMVDs: "27", structureWidth: 4, noise: 0.01},
		{Name: "Adult", PaperCols: 15, PaperRows: 32561, PaperRuntime: "1083", PaperFullMVDs: "58", structureWidth: 5, noise: 0.01},
		{Name: "Entity Source", PaperCols: 33, PaperRows: 26139, PaperRuntime: "14155", PaperFullMVDs: "153", structureWidth: 5, noise: 0.015},
		{Name: "Reflns", PaperCols: 27, PaperRows: 24769, PaperRuntime: "TL", PaperFullMVDs: "543", structureWidth: 5, noise: 0.02},
		{Name: "Letter", PaperCols: 17, PaperRows: 20000, PaperRuntime: "605", PaperFullMVDs: "44", structureWidth: 5, noise: 0.01},
		{Name: "School Results", PaperCols: 27, PaperRows: 14384, PaperRuntime: "7202", PaperFullMVDs: "2394", structureWidth: 4, noise: 0.02},
		{Name: "Voter State", PaperCols: 45, PaperRows: 10000, PaperRuntime: "TL", PaperFullMVDs: "262", structureWidth: 5, noise: 0.02},
		{Name: "Abalone", PaperCols: 9, PaperRows: 4177, PaperRuntime: "602", PaperFullMVDs: "36", structureWidth: 4, noise: 0.01},
		{Name: "Breast-Cancer", PaperCols: 11, PaperRows: 699, PaperRuntime: "5", PaperFullMVDs: "30", structureWidth: 4, noise: 0.01},
		{Name: "Hepatitis", PaperCols: 20, PaperRows: 155, PaperRuntime: "479", PaperFullMVDs: "2953", structureWidth: 4, noise: 0.03},
		{Name: "Echocardiogram", PaperCols: 13, PaperRows: 132, PaperRuntime: "6", PaperFullMVDs: "104", structureWidth: 4, noise: 0.02},
		{Name: "Bridges", PaperCols: 13, PaperRows: 108, PaperRuntime: "3.8", PaperFullMVDs: "60", structureWidth: 4, noise: 0.02},
	}
	for i := range specs {
		specs[i].Rows = specs[i].PaperRows
		if specs[i].Rows > scale {
			specs[i].Rows = scale
		}
		specs[i].seed = int64(1000 + i)
	}
	return specs
}

// Lookup returns the registry entry with the given name.
func Lookup(name string, scale int) (DatasetSpec, error) {
	for _, s := range Registry(scale) {
		if s.Name == name {
			return s, nil
		}
	}
	return DatasetSpec{}, fmt.Errorf("datagen: unknown dataset %q", name)
}

// Generate materializes the analog relation for the spec: a planted
// chain-of-bags schema with noise, sampled down to the target row count
// (so the planted dependencies hold approximately — the regime the
// paper's mining targets), plus a few *derived* columns that are exact
// functions of a base column. Real Metanome tables carry such
// denormalized column pairs (code → description), and they are what makes
// exact mining (ε = 0) productive on them: each derived column yields
// exact FDs and exact MVDs.
func (d DatasetSpec) Generate() *relation.Relation {
	derived := d.PaperCols / 5
	if derived < 1 {
		derived = 1
	}
	baseCols := d.PaperCols - derived
	bags := ChainBags(baseCols, d.structureWidth, 2)
	children := len(bags) - 1
	// Size the exact join at or above the target, then sample down.
	root := d.Rows
	for i := 0; i < children; i++ {
		root = (root + 1) / 2
		if root < 4 {
			root = 4
			break
		}
	}
	r, _, err := Planted(PlantedSpec{
		Bags:       bags,
		Domain:     6,
		RootTuples: root,
		ExtPerSep:  2,
		NoiseCells: d.noise,
		Seed:       d.seed,
	})
	if err != nil {
		panic(fmt.Sprintf("datagen: analog %q: %v", d.Name, err))
	}
	if r.NumRows() > d.Rows {
		r = r.SampleRows(d.Rows, d.seed)
	}
	return interleaveDerivedColumns(r, derived, d.seed)
}

// interleaveDerivedColumns adds k columns, each an exact random function
// of one base column, spreading them evenly through the column order so
// that column-prefix experiments (Fig. 14) see exact structure at every
// prefix — as real tables do, where code/description pairs sit anywhere.
func interleaveDerivedColumns(r *relation.Relation, k int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed * 31))
	n := r.NumCols()
	rows := r.NumRows()
	total := n + k
	// Choose derived positions evenly: every total/k-th slot.
	isDerived := make([]bool, total)
	for dj := 0; dj < k; dj++ {
		pos := (dj*total + total/2) / k
		if pos >= total {
			pos = total - 1
		}
		for isDerived[pos] {
			pos = (pos + 1) % total
		}
		isDerived[pos] = true
	}
	cols := make([][]relation.Code, total)
	names := make([]string, total)
	srcIdx := 0
	var pendingDerived []int
	for j := 0; j < total; j++ {
		if isDerived[j] {
			pendingDerived = append(pendingDerived, j)
			continue
		}
		cols[j] = r.Column(srcIdx)
		srcIdx++
	}
	for dj, pos := range pendingDerived {
		src := dj % n
		dom := r.DomainSize(src)
		f := make([]relation.Code, dom)
		for v := range f {
			f[v] = relation.Code(rng.Intn(4))
		}
		col := make([]relation.Code, rows)
		srcCol := r.Column(src)
		for i := 0; i < rows; i++ {
			col[i] = f[srcCol[i]]
		}
		cols[pos] = col
	}
	for j := 0; j < total; j++ {
		names[j] = attrName(j)
	}
	out, err := relation.FromCodes(names, cols)
	if err != nil {
		panic(err) // well-formed by construction
	}
	return out
}
