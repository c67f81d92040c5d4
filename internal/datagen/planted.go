// Package datagen generates the synthetic workloads of the reproduction.
//
// The paper evaluates on 20 real-world Metanome CSVs and the UCI Nursery
// dataset, none of which are available offline. This package provides the
// substitutes:
//
//   - Planted: relations constructed as explicit acyclic joins so that a
//     known join tree's support MVDs hold *exactly*, with optional noise —
//     ground truth for correctness tests and for the accuracy experiments.
//   - Nursery: a procedural reconstruction of the UCI Nursery dataset
//     (full factorial over 8 attributes plus a rule-derived class), the
//     paper's Sec. 8.1 use case.
//   - Registry: per-Table-2 synthetic analogs with matched column counts
//     and scaled row counts.
//   - Uniform and FunctionalChain: simple generators for unit tests and
//     the FD baseline.
package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/relation"
	"repro/internal/schema"
)

// PlantedSpec configures a planted-schema relation.
type PlantedSpec struct {
	// Bags are the relation schemas of the planted acyclic schema. They
	// must cover {0..n-1} for some n and admit a join tree.
	Bags []bitset.AttrSet
	// Domain is the per-attribute domain size (default 6).
	Domain int
	// RootTuples is the number of distinct tuples generated for the root
	// bag (default 8).
	RootTuples int
	// ExtPerSep is how many distinct extensions each separator value gets
	// in every child bag (default 2). Rows multiply by this per child, so
	// the final size is RootTuples × ExtPerSep^(#children).
	ExtPerSep int
	// NoiseCells is the fraction of cells overwritten with random values
	// after generation (default 0 = exact).
	NoiseCells float64
	// Seed drives all randomness.
	Seed int64
}

func (s *PlantedSpec) defaults() {
	if s.Domain <= 1 {
		s.Domain = 6
	}
	if s.RootTuples <= 0 {
		s.RootTuples = 8
	}
	if s.ExtPerSep <= 0 {
		s.ExtPerSep = 2
	}
}

// Planted generates a relation that satisfies the acyclic join dependency
// of spec.Bags exactly (before noise): the relation is built as the join
// of per-bag relations produced by parent-first expansion along a join
// tree, so every support MVD of the tree has J = 0 on the noiseless
// output. It returns the relation and the planted schema.
func Planted(spec PlantedSpec) (*relation.Relation, schema.Schema, error) {
	spec.defaults()
	s, err := schema.New(spec.Bags)
	if err != nil {
		return nil, schema.Schema{}, err
	}
	tree, err := schema.BuildJoinTree(s)
	if err != nil {
		return nil, schema.Schema{}, fmt.Errorf("datagen: planted bags are not acyclic: %w", err)
	}
	n := s.Attrs().Len()
	if s.Attrs() != bitset.Full(n) {
		return nil, schema.Schema{}, fmt.Errorf("datagen: bags must cover a prefix universe, got %v", s.Attrs())
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	order, parents := tree.DepthFirstOrder()
	root := order[0]

	// rows hold full-width tuples; assigned tracks which attributes are set.
	rootAttrs := tree.Bags[root].Indices()
	rows := make([][]relation.Code, 0, spec.RootTuples)
	seen := map[string]bool{}
	for attempts := 0; len(rows) < spec.RootTuples && attempts < spec.RootTuples*50; attempts++ {
		tup := make([]relation.Code, n)
		key := make([]byte, 0, len(rootAttrs))
		for _, a := range rootAttrs {
			v := relation.Code(rng.Intn(spec.Domain))
			tup[a] = v
			key = append(key, byte(v))
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		rows = append(rows, tup)
	}

	for _, u := range order[1:] {
		sep := tree.Bags[u].Intersect(tree.Bags[parents[u]])
		fresh := tree.Bags[u].Diff(sep).Indices()
		if len(fresh) == 0 {
			continue // bag adds nothing new
		}
		sepIdx := sep.Indices()
		// For each distinct separator value, a fixed set of extensions.
		extensions := map[string][][]relation.Code{}
		extKey := func(tup []relation.Code) string {
			k := make([]byte, 0, len(sepIdx))
			for _, a := range sepIdx {
				k = append(k, byte(tup[a]))
			}
			return string(k)
		}
		for _, tup := range rows {
			k := extKey(tup)
			if _, ok := extensions[k]; ok {
				continue
			}
			exts := make([][]relation.Code, 0, spec.ExtPerSep)
			dup := map[string]bool{}
			for attempts := 0; len(exts) < spec.ExtPerSep && attempts < spec.ExtPerSep*50; attempts++ {
				e := make([]relation.Code, len(fresh))
				ek := make([]byte, 0, len(fresh))
				for i := range fresh {
					e[i] = relation.Code(rng.Intn(spec.Domain))
					ek = append(ek, byte(e[i]))
				}
				if dup[string(ek)] {
					continue
				}
				dup[string(ek)] = true
				exts = append(exts, e)
			}
			extensions[k] = exts
		}
		next := make([][]relation.Code, 0, len(rows)*spec.ExtPerSep)
		for _, tup := range rows {
			for _, e := range extensions[extKey(tup)] {
				nt := append([]relation.Code(nil), tup...)
				for i, a := range fresh {
					nt[a] = e[i]
				}
				next = append(next, nt)
			}
		}
		rows = next
	}

	// Noise: overwrite random cells.
	if spec.NoiseCells > 0 {
		total := len(rows) * n
		flips := int(spec.NoiseCells * float64(total))
		for f := 0; f < flips; f++ {
			i := rng.Intn(len(rows))
			j := rng.Intn(n)
			rows[i][j] = relation.Code(rng.Intn(spec.Domain))
		}
	}

	cols := make([][]relation.Code, n)
	for j := range cols {
		col := make([]relation.Code, len(rows))
		for i, tup := range rows {
			col[i] = tup[j]
		}
		cols[j] = col
	}
	names := make([]string, n)
	for j := range names {
		names[j] = attrName(j)
	}
	r, err := relation.FromCodes(names, cols)
	if err != nil {
		return nil, schema.Schema{}, err
	}
	return r, s, nil
}

// attrName names attributes A..Z, then C26, C27, ... (matching relation's
// CSV default naming).
func attrName(j int) string {
	if j < 26 {
		return string(rune('A' + j))
	}
	return fmt.Sprintf("C%d", j)
}

// ChainBags builds the bag structure used by the analogs: a chain of bags
// of the given width overlapping by the given separator size, covering
// exactly n attributes.
func ChainBags(n, width, overlap int) []bitset.AttrSet {
	if width < 2 {
		width = 2
	}
	if overlap < 1 {
		overlap = 1
	}
	if overlap >= width {
		overlap = width - 1
	}
	if n <= width {
		return []bitset.AttrSet{bitset.Full(n)}
	}
	var bags []bitset.AttrSet
	step := width - overlap
	for start := 0; ; start += step {
		end := start + width
		if end >= n {
			var b bitset.AttrSet
			for a := n - width; a < n; a++ {
				b = b.Add(a)
			}
			bags = append(bags, b)
			break
		}
		var b bitset.AttrSet
		for a := start; a < end; a++ {
			b = b.Add(a)
		}
		bags = append(bags, b)
	}
	return bags
}

// Uniform generates rows×cols i.i.d. uniform categorical data — the
// unstructured baseline workload.
func Uniform(rows, cols, domain int, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]relation.Code, cols)
	names := make([]string, cols)
	for j := range data {
		col := make([]relation.Code, rows)
		for i := range col {
			col[i] = relation.Code(rng.Intn(domain))
		}
		data[j] = col
		names[j] = attrName(j)
	}
	r, err := relation.FromCodes(names, data)
	if err != nil {
		panic(err) // construction is well-formed by construction
	}
	return r
}

// Zipf generates rows×cols categorical data with Zipf-skewed marginals
// (exponent s > 1): real tables' columns are rarely uniform, and skew is
// what makes stripped partitions effective — frequent values form large
// classes, rare values prune away. Used by entropy-engine stress tests.
func Zipf(rows, cols, domain int, s float64, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	if s <= 1 {
		s = 1.5
	}
	z := rand.NewZipf(rng, s, 1, uint64(domain-1))
	data := make([][]relation.Code, cols)
	names := make([]string, cols)
	for j := range data {
		col := make([]relation.Code, rows)
		for i := range col {
			col[i] = relation.Code(z.Uint64())
		}
		data[j] = col
		names[j] = attrName(j)
	}
	r, err := relation.FromCodes(names, data)
	if err != nil {
		panic(err)
	}
	return r
}

// FunctionalChain generates data where column j+1 is a function of column
// j (plus noise): a chain of FDs A→B→C→..., which is also a rich source of
// exact MVDs. Used by the FD baseline tests.
func FunctionalChain(rows, cols, domain int, noise float64, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	fn := make([][]relation.Code, cols)
	for j := 1; j < cols; j++ {
		f := make([]relation.Code, domain)
		for v := range f {
			f[v] = relation.Code(rng.Intn(domain))
		}
		fn[j] = f
	}
	data := make([][]relation.Code, cols)
	names := make([]string, cols)
	for j := range data {
		data[j] = make([]relation.Code, rows)
		names[j] = attrName(j)
	}
	for i := 0; i < rows; i++ {
		v := relation.Code(rng.Intn(domain))
		data[0][i] = v
		for j := 1; j < cols; j++ {
			v = fn[j][v]
			if noise > 0 && rng.Float64() < noise {
				v = relation.Code(rng.Intn(domain))
			}
			data[j][i] = v
		}
	}
	r, err := relation.FromCodes(names, data)
	if err != nil {
		panic(err)
	}
	return r
}
