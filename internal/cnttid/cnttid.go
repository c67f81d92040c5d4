// Package cnttid implements the paper's getEntropyR literally (Sec. 6.3):
// per attribute-set tables
//
//	CNTα(val, cnt)  — hash of the α-projection of a tuple → its frequency,
//	                  rows with cnt = 1 pruned;
//	TIDα(val, tid)  — the same hashes → ids of the rows carrying them,
//	                  restricted to values present in CNTα,
//
// combined with the two SQL queries the paper runs on the H2 in-memory
// database:
//
//	CNTα∪β:  SELECT hash(A.val,B.val), COUNT(*) FROM TIDα A, TIDβ B
//	         WHERE A.tid = B.tid GROUP BY hash(A.val,B.val)
//	         HAVING COUNT(*) > 1
//	TIDα∪β:  SELECT hash(A.val,B.val), A.tid FROM TIDα A, TIDβ B, CNTα∪β Z
//	         WHERE A.tid = B.tid AND hash(A.val,B.val) = Z.val
//
// expressed as native hash joins. The optimized production backend is
// internal/pli (stripped partitions — the same information, organized by
// class); this package exists as the faithful-to-paper reference engine,
// cross-validated against it by tests and compared in the entropy-engine
// ablation. Like the paper, it partitions the attribute universe into
// blocks of size L and materializes tables per block lazily.
package cnttid

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/hsum"
	"repro/internal/relation"
)

// Value is the hash of a projected tuple. The paper uses the database's
// hash function; we use the dictionary codes themselves combined with an
// FNV-style mix, which is collision-free here because we fold in each
// code exactly (the "hash" is really an injective encoding built
// incrementally, matching what hash(A.val, B.val) achieves in H2 up to
// collisions).
type Value string

// Table is the CNT/TID pair for one attribute set.
type Table struct {
	Attrs bitset.AttrSet
	// CNT maps value → frequency, frequencies of 1 pruned.
	CNT map[Value]int32
	// TID maps value → sorted row ids (only values present in CNT).
	TID map[Value][]int32
}

// rows returns the total number of tids stored (the table's size measure).
func (t *Table) rows() int {
	n := 0
	for _, tids := range t.TID {
		n += len(tids)
	}
	return n
}

// Engine serves entropies via CNT/TID tables.
type Engine struct {
	rel       *relation.Relation
	blockSize int
	tables    map[bitset.AttrSet]*Table
	stats     Stats
}

// Stats counts engine work for the ablation report.
type Stats struct {
	Joins  int // pairwise TID joins executed (the paper's SQL queries)
	Tables int // tables currently materialized
}

// New builds an engine with the paper's default block size L = 10.
func New(r *relation.Relation) *Engine { return NewWithBlockSize(r, 10) }

// NewWithBlockSize builds an engine with an explicit L.
func NewWithBlockSize(r *relation.Relation, l int) *Engine {
	if l <= 0 {
		l = 10
	}
	e := &Engine{rel: r, blockSize: l, tables: make(map[bitset.AttrSet]*Table)}
	for j := 0; j < r.NumCols(); j++ {
		e.tables[bitset.Single(j)] = e.singleAttribute(j)
	}
	e.stats.Tables = len(e.tables)
	return e
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Tables = len(e.tables)
	return s
}

// singleAttribute builds CNT{j}/TID{j} from the column codes.
func (e *Engine) singleAttribute(j int) *Table {
	col := e.rel.Column(j)
	cnt := make(map[Value]int32)
	for _, c := range col {
		cnt[codeValue(c)]++
	}
	t := &Table{Attrs: bitset.Single(j), CNT: make(map[Value]int32), TID: make(map[Value][]int32)}
	for v, c := range cnt {
		if c > 1 {
			t.CNT[v] = c
		}
	}
	for i, c := range col {
		v := codeValue(c)
		if _, ok := t.CNT[v]; ok {
			t.TID[v] = append(t.TID[v], int32(i))
		}
	}
	return t
}

func codeValue(c relation.Code) Value {
	return Value([]byte{byte(c), byte(c >> 8), byte(c >> 16), byte(c >> 24)})
}

// combine concatenates two values — the hash(A.val, B.val) of the paper's
// queries (injective rather than lossy).
func combine(a, b Value) Value { return a + b }

// join executes both of the paper's SQL queries at once: given the tables
// for α and β, produce the table for α ∪ β. Rows whose combined value
// occurs once are pruned (HAVING COUNT(*) > 1), and rows absent from
// either TID table cannot contribute (their α- or β-value was already
// unique, so the combined value is unique too — the key observation that
// makes pruning sound).
func (e *Engine) join(a, b *Table) *Table {
	e.stats.Joins++
	// Probe the smaller TID side.
	if b.rows() < a.rows() {
		a, b = b, a
	}
	// tid → value index for b.
	bval := make(map[int32]Value, b.rows())
	for v, tids := range b.TID {
		for _, tid := range tids {
			bval[tid] = v
		}
	}
	cnt := make(map[Value]int32)
	tidm := make(map[Value][]int32)
	for va, tids := range a.TID {
		for _, tid := range tids {
			vb, ok := bval[tid]
			if !ok {
				continue
			}
			v := combine(va, vb)
			cnt[v]++
			tidm[v] = append(tidm[v], tid)
		}
	}
	out := &Table{Attrs: a.Attrs.Union(b.Attrs), CNT: make(map[Value]int32), TID: make(map[Value][]int32)}
	for v, c := range cnt {
		if c > 1 {
			out.CNT[v] = c
			tids := tidm[v]
			sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
			out.TID[v] = tids
		}
	}
	return out
}

// table returns (materializing blockwise as needed) the CNT/TID pair for
// attrs.
func (e *Engine) table(attrs bitset.AttrSet) *Table {
	if t, ok := e.tables[attrs]; ok {
		return t
	}
	var acc *Table
	var accSet bitset.AttrSet
	n := e.rel.NumCols()
	for start := 0; start < n; start += e.blockSize {
		var block bitset.AttrSet
		for j := start; j < start+e.blockSize && j < n; j++ {
			block = block.Add(j)
		}
		piece := attrs.Intersect(block)
		if piece.IsEmpty() {
			continue
		}
		pt := e.blockTable(piece)
		if acc == nil {
			acc, accSet = pt, piece
			continue
		}
		accSet = accSet.Union(piece)
		acc = e.join(acc, pt)
		e.tables[accSet] = acc
	}
	return acc
}

// blockTable materializes a within-block table by peeling attributes,
// caching every intermediate subset (the paper's per-block tables).
func (e *Engine) blockTable(piece bitset.AttrSet) *Table {
	if t, ok := e.tables[piece]; ok {
		return t
	}
	hi := piece.Max()
	rest := piece.Remove(hi)
	t := e.join(e.blockTable(rest), e.tables[bitset.Single(hi)])
	e.tables[piece] = t
	return t
}

// H computes the empirical entropy of attrs in bits via Eq. (5), scanning
// the CNT table; pruned singleton values contribute zero.
func (e *Engine) H(attrs bitset.AttrSet) float64 {
	n := e.rel.NumRows()
	if n == 0 || attrs.IsEmpty() {
		return 0
	}
	t := e.table(attrs)
	sc := hsum.For(n)
	var sum int64
	for _, c := range t.CNT {
		sum += sc.Term(int(c))
	}
	return sc.Entropy(sum)
}

// MI computes I(Y;Z|X) = H(XY) + H(XZ) − H(XYZ) − H(X), clamped at 0.
func (e *Engine) MI(y, z, x bitset.AttrSet) float64 {
	v := e.H(x.Union(y)) + e.H(x.Union(z)) - e.H(x.Union(y).Union(z)) - e.H(x)
	if v < 0 {
		return 0
	}
	return v
}
