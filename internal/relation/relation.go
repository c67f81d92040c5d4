// Package relation implements the column-oriented, dictionary-encoded
// relation instances that Maimon mines.
//
// A Relation stores each attribute as a column of dense integer codes; the
// original string values (when the relation came from a CSV file) are kept
// in per-column dictionaries so relations can round-trip. All mining
// algorithms operate on the codes only: the empirical distribution of the
// paper (Sec. 3.2) depends only on value equality, never on the values
// themselves.
package relation

import (
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bitset"
)

// Code is a dictionary-encoded attribute value. Codes are dense per column:
// column j uses codes 0..DomainSize(j)-1.
type Code = int32

// Relation is an immutable relation instance over an ordered signature.
// Construct one with FromRows, FromCodes, ReadCSV, or a Builder; the methods
// never mutate the receiver.
type Relation struct {
	names []string
	cols  [][]Code
	dicts [][]string // dicts[j][c] is the original string for code c; nil if synthetic
	rows  int
}

// ErrTooManyColumns is returned when a relation would exceed
// bitset.MaxAttrs attributes.
var ErrTooManyColumns = fmt.Errorf("relation: more than %d columns", bitset.MaxAttrs)

// FromRows builds a relation from string-valued rows. Every row must have
// exactly len(names) fields.
func FromRows(names []string, rows [][]string) (*Relation, error) {
	if len(names) > bitset.MaxAttrs {
		return nil, ErrTooManyColumns
	}
	if len(names) == 0 {
		return nil, errors.New("relation: empty signature")
	}
	b := NewBuilder(names)
	for i, row := range rows {
		if len(row) != len(names) {
			return nil, fmt.Errorf("relation: row %d has %d fields, want %d", i, len(row), len(names))
		}
		b.AddRow(row)
	}
	return b.Relation(), nil
}

// MustFromRows is FromRows that panics on error; intended for tests and
// package examples with literal data.
func MustFromRows(names []string, rows [][]string) *Relation {
	r, err := FromRows(names, rows)
	if err != nil {
		panic(err)
	}
	return r
}

// FromCodes builds a relation directly from code columns. The caller must
// supply one column per name, all of equal length, with non-negative codes.
// No dictionaries are attached; Value renders codes as "v<code>".
func FromCodes(names []string, cols [][]Code) (*Relation, error) {
	if len(names) > bitset.MaxAttrs {
		return nil, ErrTooManyColumns
	}
	if len(names) == 0 {
		return nil, errors.New("relation: empty signature")
	}
	if len(cols) != len(names) {
		return nil, fmt.Errorf("relation: %d columns for %d names", len(cols), len(names))
	}
	n := len(cols[0])
	for j, c := range cols {
		if len(c) != n {
			return nil, fmt.Errorf("relation: column %d has %d rows, want %d", j, len(c), n)
		}
		for i, v := range c {
			if v < 0 {
				return nil, fmt.Errorf("relation: negative code %d at column %d row %d", v, j, i)
			}
		}
	}
	return &Relation{names: append([]string(nil), names...), cols: cols, rows: n}, nil
}

// Builder incrementally assembles a relation from string rows,
// dictionary-encoding values as they arrive.
type Builder struct {
	names   []string
	cols    [][]Code
	dicts   [][]string
	indexes []map[string]Code
}

// NewBuilder returns a builder over the given signature.
func NewBuilder(names []string) *Builder {
	b := &Builder{
		names:   append([]string(nil), names...),
		cols:    make([][]Code, len(names)),
		dicts:   make([][]string, len(names)),
		indexes: make([]map[string]Code, len(names)),
	}
	for j := range names {
		b.indexes[j] = make(map[string]Code)
	}
	return b
}

// AddRow appends one row; it panics if the arity is wrong (callers validate).
func (b *Builder) AddRow(row []string) {
	if len(row) != len(b.names) {
		panic(fmt.Sprintf("relation: row arity %d, want %d", len(row), len(b.names)))
	}
	for j, v := range row {
		code, ok := b.indexes[j][v]
		if !ok {
			code = Code(len(b.dicts[j]))
			b.indexes[j][v] = code
			b.dicts[j] = append(b.dicts[j], v)
		}
		b.cols[j] = append(b.cols[j], code)
	}
}

// Relation finalizes the builder. The builder must not be used afterwards.
func (b *Builder) Relation() *Relation {
	n := 0
	if len(b.cols) > 0 {
		n = len(b.cols[0])
	}
	return &Relation{names: b.names, cols: b.cols, dicts: b.dicts, rows: n}
}

// NumRows returns N = |R|.
func (r *Relation) NumRows() int { return r.rows }

// NumCols returns n = |Ω|.
func (r *Relation) NumCols() int { return len(r.names) }

// Names returns the attribute names in signature order. The slice is shared;
// callers must not modify it.
func (r *Relation) Names() []string { return r.names }

// Name returns the name of attribute j.
func (r *Relation) Name(j int) string { return r.names[j] }

// AllAttrs returns the full attribute set Ω of this relation.
func (r *Relation) AllAttrs() bitset.AttrSet { return bitset.Full(r.NumCols()) }

// AttrIndex returns the index of the named attribute, or -1.
func (r *Relation) AttrIndex(name string) int {
	for j, n := range r.names {
		if n == name {
			return j
		}
	}
	return -1
}

// ParseAttrs resolves a comma-separated list of attribute names (or the
// letter form "ABD" when every name is a single letter) to an AttrSet.
func (r *Relation) ParseAttrs(spec string) (bitset.AttrSet, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return 0, nil
	}
	var out bitset.AttrSet
	if strings.Contains(spec, ",") {
		for _, part := range strings.Split(spec, ",") {
			j := r.AttrIndex(strings.TrimSpace(part))
			if j < 0 {
				return 0, fmt.Errorf("relation: unknown attribute %q", part)
			}
			out = out.Add(j)
		}
		return out, nil
	}
	// Single token: try exact name first, then letters.
	if j := r.AttrIndex(spec); j >= 0 {
		return bitset.Single(j), nil
	}
	for _, c := range spec {
		j := r.AttrIndex(string(c))
		if j < 0 {
			return 0, fmt.Errorf("relation: unknown attribute %q in %q", string(c), spec)
		}
		out = out.Add(j)
	}
	return out, nil
}

// Code returns the dictionary code at row i, column j.
func (r *Relation) Code(i, j int) Code { return r.cols[j][i] }

// Column returns column j's codes. The slice is shared; do not modify.
func (r *Relation) Column(j int) []Code { return r.cols[j] }

// DomainSize returns the number of distinct values in column j.
func (r *Relation) DomainSize(j int) int {
	if r.dicts != nil && r.dicts[j] != nil {
		return len(r.dicts[j])
	}
	max := Code(-1)
	for _, c := range r.cols[j] {
		if c > max {
			max = c
		}
	}
	return int(max + 1)
}

// Value renders the value at row i, column j, using the dictionary when
// available and a synthetic "v<code>" form otherwise.
func (r *Relation) Value(i, j int) string {
	c := r.cols[j][i]
	if r.dicts != nil && r.dicts[j] != nil {
		return r.dicts[j][int(c)]
	}
	return "v" + strconv.Itoa(int(c))
}

// Row returns row i as strings in signature order.
func (r *Relation) Row(i int) []string {
	out := make([]string, r.NumCols())
	for j := range out {
		out[j] = r.Value(i, j)
	}
	return out
}

// rowKey writes the codes of row i restricted to attrs into buf and returns
// it as a comparable string key. attrs iterates in increasing index order,
// so keys are canonical.
func (r *Relation) rowKey(i int, attrs bitset.AttrSet, buf []byte) string {
	buf = buf[:0]
	attrs.ForEach(func(j int) bool {
		c := r.cols[j][i]
		buf = append(buf, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		return true
	})
	return string(buf)
}

// RowKey exposes the canonical per-row key on a projection; used by
// decomposition and join code in sibling packages.
func (r *Relation) RowKey(i int, attrs bitset.AttrSet) string {
	return r.rowKey(i, attrs, make([]byte, 0, 4*attrs.Len()))
}

// Project returns the projection R[attrs] with duplicate rows removed.
// Column order follows increasing attribute index, and the projected
// relation keeps the original names and dictionaries.
func (r *Relation) Project(attrs bitset.AttrSet) *Relation {
	idx := attrs.Indices()
	if len(idx) == 0 {
		// The projection onto no attributes of a nonempty relation is the
		// single empty tuple; we model it as a zero-column relation with one
		// logical row being meaningless, so forbid it instead.
		panic("relation: projection onto empty attribute set")
	}
	seen := make(map[string]struct{}, r.rows)
	keep := make([]int, 0, r.rows)
	buf := make([]byte, 0, 4*len(idx))
	for i := 0; i < r.rows; i++ {
		k := r.rowKey(i, attrs, buf)
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		keep = append(keep, i)
	}
	return r.subset(keep, idx)
}

// KeepColumns returns the relation restricted to attrs without removing
// duplicate rows (used by the column-scalability experiments).
func (r *Relation) KeepColumns(attrs bitset.AttrSet) *Relation {
	idx := attrs.Indices()
	if len(idx) == 0 {
		panic("relation: empty column selection")
	}
	all := make([]int, r.rows)
	for i := range all {
		all[i] = i
	}
	return r.subset(all, idx)
}

// Head returns the relation consisting of the first k rows.
func (r *Relation) Head(k int) *Relation {
	if k > r.rows {
		k = r.rows
	}
	keep := make([]int, k)
	for i := range keep {
		keep[i] = i
	}
	idx := make([]int, r.NumCols())
	for j := range idx {
		idx[j] = j
	}
	return r.subset(keep, idx)
}

// SampleRows returns a uniform random sample of k rows (without
// replacement) drawn with the given seed. If k >= NumRows the receiver's
// rows are all kept, in order.
func (r *Relation) SampleRows(k int, seed int64) *Relation {
	if k >= r.rows {
		return r.Head(r.rows)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(r.rows)[:k]
	sort.Ints(perm)
	idx := make([]int, r.NumCols())
	for j := range idx {
		idx[j] = j
	}
	return r.subset(perm, idx)
}

// Dedup returns the relation with exact duplicate rows removed.
func (r *Relation) Dedup() *Relation {
	return r.Project(bitset.Full(r.NumCols()))
}

// SelectRows returns the relation restricted to the given row indices (in
// the given order), preserving dictionary codes — unlike rebuilding
// through a Builder, codes of the result remain comparable with codes of
// other projections of the same base relation.
func (r *Relation) SelectRows(rows []int) *Relation {
	idx := make([]int, r.NumCols())
	for j := range idx {
		idx[j] = j
	}
	return r.subset(rows, idx)
}

// ProjectRows is SelectRows restricted to the columns in attrs (in
// increasing attribute index): given one row per distinct value of attrs,
// in first-occurrence order, it is Project without the grouping.
func (r *Relation) ProjectRows(rows []int, attrs bitset.AttrSet) *Relation {
	return r.subset(rows, attrs.Indices())
}

// subset materializes the rows in keep (by original index) restricted to
// the original columns listed in idx.
func (r *Relation) subset(keep []int, idx []int) *Relation {
	names := make([]string, len(idx))
	cols := make([][]Code, len(idx))
	var dicts [][]string
	if r.dicts != nil {
		dicts = make([][]string, len(idx))
	}
	for jj, j := range idx {
		names[jj] = r.names[j]
		col := make([]Code, len(keep))
		src := r.cols[j]
		for ii, i := range keep {
			col[ii] = src[i]
		}
		cols[jj] = col
		if dicts != nil {
			dicts[jj] = r.dicts[j]
		}
	}
	return &Relation{names: names, cols: cols, dicts: dicts, rows: len(keep)}
}

// ContainsRow reports whether the relation contains a row whose codes on
// all columns equal those of row i of other (matched by column name).
// Both relations must share a signature for the comparison to be meaningful.
func (r *Relation) ContainsRow(other *Relation, i int) bool {
	if r.NumCols() != other.NumCols() {
		return false
	}
	// Match columns by name.
	perm := make([]int, r.NumCols())
	for j := range perm {
		perm[j] = other.AttrIndex(r.names[j])
		if perm[j] < 0 {
			return false
		}
	}
	vals := make([]string, r.NumCols())
	for j := range vals {
		vals[j] = other.Value(i, perm[j])
	}
outer:
	for k := 0; k < r.rows; k++ {
		for j := range vals {
			if r.Value(k, j) != vals[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

// Equal reports whether two relations have the same signature and the same
// multiset of rows (compared by string values).
func (r *Relation) Equal(o *Relation) bool {
	if r.NumCols() != o.NumCols() || r.NumRows() != o.NumRows() {
		return false
	}
	for j := range r.names {
		if r.names[j] != o.names[j] {
			return false
		}
	}
	count := make(map[string]int, r.rows)
	var buf []byte
	for i := 0; i < r.rows; i++ {
		buf = r.appendRow(buf[:0], i)
		count[string(buf)]++
	}
	for i := 0; i < o.rows; i++ {
		buf = o.appendRow(buf[:0], i)
		k := string(buf)
		count[k]--
		if count[k] < 0 {
			return false
		}
	}
	return true
}

// appendRow appends row i's values to buf, each prefixed by its length, so
// that two rows get the same bytes exactly when their values are equal.
func (r *Relation) appendRow(buf []byte, i int) []byte {
	for j := range r.names {
		v := r.Value(i, j)
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// Cells returns the number of cells (rows × columns), the storage measure
// used by the paper's savings metric (Sec. 8.1).
func (r *Relation) Cells() int { return r.rows * r.NumCols() }

// ShapeHash fingerprints the relation instance: shape (rows, columns,
// names, domain sizes) and every code cell, folded FNV-1a style. Two
// relations share a hash exactly when mining them is interchangeable —
// the codes determine every partition — so persistent artifacts derived
// from the relation (spilled partitions, warm caches) stamp themselves
// with it and refuse to load against different data. Deterministic
// across processes and architectures.
func (r *Relation) ShapeHash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h = (h ^ x) * prime
	}
	mix(uint64(r.rows))
	mix(uint64(r.NumCols()))
	for _, name := range r.names {
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * prime
		}
		mix(0xfe) // name terminator so ["ab","c"] ≠ ["a","bc"]
	}
	for j := range r.cols {
		mix(uint64(r.DomainSize(j)))
		for _, code := range r.cols[j] {
			mix(uint64(uint32(code)))
		}
	}
	return h
}

// WriteCSV writes the relation as CSV with a header row, such that
// ReadCSV(…, true) reads back the same names and rows.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	write := func(rec []string) error {
		if len(rec) == 1 && rec[0] == "" {
			// encoding/csv writes this record as an empty line, and
			// readers skip empty lines.
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			_, err := io.WriteString(w, "\"\"\n")
			return err
		}
		for j, v := range rec {
			// A reader drops the \r of every \r\n line end, inside quoted
			// fields too; the extra \r keeps the value's own.
			if strings.Contains(v, "\r\n") {
				rec[j] = strings.ReplaceAll(v, "\r\n", "\r\r\n")
			}
		}
		return cw.Write(rec)
	}
	if err := write(append([]string(nil), r.names...)); err != nil {
		return err
	}
	for i := 0; i < r.rows; i++ {
		if err := write(r.Row(i)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// defaultName names column j as A..Z, then C26, C27, ...
func defaultName(j int) string {
	if j < 26 {
		return string(rune('A' + j))
	}
	return "C" + strconv.Itoa(j)
}

// String renders a compact table, useful in examples and failure messages.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.names, " | "))
	b.WriteByte('\n')
	limit := r.rows
	const maxShow = 20
	if limit > maxShow {
		limit = maxShow
	}
	for i := 0; i < limit; i++ {
		b.WriteString(strings.Join(r.Row(i), " | "))
		b.WriteByte('\n')
	}
	if r.rows > limit {
		fmt.Fprintf(&b, "... (%d rows total)\n", r.rows)
	}
	return b.String()
}
