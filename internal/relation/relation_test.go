package relation

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// paperR is the running-example relation of Fig. 1 (without the red tuple).
func paperR() *Relation {
	return MustFromRows(
		[]string{"A", "B", "C", "D", "E", "F"},
		[][]string{
			{"a1", "b1", "c1", "d1", "e1", "f1"},
			{"a2", "b2", "c1", "d1", "e2", "f2"},
			{"a2", "b2", "c2", "d2", "e3", "f2"},
			{"a1", "b2", "c1", "d2", "e3", "f1"},
		},
	)
}

func TestFromRowsBasics(t *testing.T) {
	r := paperR()
	if r.NumRows() != 4 || r.NumCols() != 6 {
		t.Fatalf("size = %dx%d", r.NumRows(), r.NumCols())
	}
	if r.Name(2) != "C" {
		t.Fatalf("Name(2) = %q", r.Name(2))
	}
	if r.AttrIndex("E") != 4 || r.AttrIndex("Z") != -1 {
		t.Fatal("AttrIndex wrong")
	}
	if r.Value(1, 0) != "a2" {
		t.Fatalf("Value(1,0) = %q", r.Value(1, 0))
	}
	if r.DomainSize(0) != 2 || r.DomainSize(4) != 3 {
		t.Fatalf("domains = %d, %d", r.DomainSize(0), r.DomainSize(4))
	}
	if r.Cells() != 24 {
		t.Fatalf("Cells = %d", r.Cells())
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows([]string{"A"}, [][]string{{"x", "y"}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := FromRows(nil, nil); err == nil {
		t.Fatal("empty signature accepted")
	}
	names := make([]string, 65)
	for i := range names {
		names[i] = defaultName(i)
	}
	if _, err := FromRows(names, nil); err != ErrTooManyColumns {
		t.Fatal("65 columns accepted")
	}
}

func TestFromCodes(t *testing.T) {
	r, err := FromCodes([]string{"X", "Y"}, [][]Code{{0, 1, 0}, {2, 2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 3 {
		t.Fatal("rows")
	}
	if r.Value(0, 1) != "v2" {
		t.Fatalf("synthetic value = %q", r.Value(0, 1))
	}
	if _, err := FromCodes([]string{"X"}, [][]Code{{-1}}); err == nil {
		t.Fatal("negative code accepted")
	}
	if _, err := FromCodes([]string{"X", "Y"}, [][]Code{{0}}); err == nil {
		t.Fatal("column count mismatch accepted")
	}
	if _, err := FromCodes([]string{"X", "Y"}, [][]Code{{0}, {0, 1}}); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

func TestProjectDedups(t *testing.T) {
	r := paperR()
	ad, err := r.ParseAttrs("AD")
	if err != nil {
		t.Fatal(err)
	}
	p := r.Project(ad)
	// Projections of the 4 rows on AD: (a1,d1),(a2,d1),(a2,d2),(a1,d2): all distinct.
	if p.NumRows() != 4 || p.NumCols() != 2 {
		t.Fatalf("R[AD] = %dx%d", p.NumRows(), p.NumCols())
	}
	a := bitset.Single(0)
	pa := r.Project(a)
	if pa.NumRows() != 2 {
		t.Fatalf("R[A] has %d rows, want 2", pa.NumRows())
	}
}

func TestProjectKeepsDictionaries(t *testing.T) {
	r := paperR()
	p := r.Project(bitset.Of(0, 5))
	found := false
	for i := 0; i < p.NumRows(); i++ {
		if p.Value(i, 0) == "a1" && p.Value(i, 1) == "f1" {
			found = true
		}
	}
	if !found {
		t.Fatal("projection lost original values")
	}
}

func TestKeepColumnsNoDedup(t *testing.T) {
	r := MustFromRows([]string{"A", "B"}, [][]string{{"x", "1"}, {"x", "2"}, {"x", "3"}})
	k := r.KeepColumns(bitset.Single(0))
	if k.NumRows() != 3 {
		t.Fatalf("KeepColumns deduped: %d rows", k.NumRows())
	}
}

func TestHeadAndSample(t *testing.T) {
	r := paperR()
	if r.Head(2).NumRows() != 2 {
		t.Fatal("Head(2)")
	}
	if r.Head(100).NumRows() != 4 {
		t.Fatal("Head beyond size")
	}
	s := r.SampleRows(3, 7)
	if s.NumRows() != 3 {
		t.Fatalf("sample size %d", s.NumRows())
	}
	s2 := r.SampleRows(3, 7)
	if !s.Equal(s2) {
		t.Fatal("sampling not deterministic for fixed seed")
	}
	if r.SampleRows(10, 1).NumRows() != 4 {
		t.Fatal("oversample should keep all rows")
	}
}

func TestDedup(t *testing.T) {
	r := MustFromRows([]string{"A", "B"}, [][]string{{"x", "1"}, {"x", "1"}, {"y", "2"}})
	if r.Dedup().NumRows() != 2 {
		t.Fatal("Dedup")
	}
}

func TestEqualIsMultisetOrderInsensitive(t *testing.T) {
	a := MustFromRows([]string{"A", "B"}, [][]string{{"x", "1"}, {"y", "2"}})
	b := MustFromRows([]string{"A", "B"}, [][]string{{"y", "2"}, {"x", "1"}})
	if !a.Equal(b) {
		t.Fatal("row order should not matter")
	}
	c := MustFromRows([]string{"A", "B"}, [][]string{{"x", "1"}, {"x", "1"}})
	if a.Equal(c) {
		t.Fatal("different multisets compared equal")
	}
}

func TestParseAttrs(t *testing.T) {
	r := paperR()
	s, err := r.ParseAttrs("BD")
	if err != nil || s != bitset.Of(1, 3) {
		t.Fatalf("ParseAttrs(BD) = %v, %v", s, err)
	}
	named := MustFromRows([]string{"city", "zip"}, [][]string{{"s", "1"}})
	s, err = named.ParseAttrs("city,zip")
	if err != nil || s != bitset.Of(0, 1) {
		t.Fatalf("ParseAttrs(city,zip) = %v, %v", s, err)
	}
	if _, err := named.ParseAttrs("nope"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := paperR()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(back) {
		t.Fatal("CSV round-trip changed relation")
	}
}

// TestWriteCSVReadsBack: records encoding/csv alone would not round-trip —
// one empty field, which it writes as an empty line that readers skip, and
// a value holding \r\n, whose \r readers drop — are written so that
// ReadCSV reads back what was written. Other records keep encoding/csv's
// bytes.
func TestWriteCSVReadsBack(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		rows     int
		want     string
	}{
		{"one empty field", "A\n\"\"\nx\n", 2, "A\n\"\"\nx\n"},
		{"empty one-column header", "\"\"\nx\n", 1, "\"\"\nx\n"},
		{"empty fields of two columns", "A,B\n,\nx,\n", 2, "A,B\n,\nx,\n"},
		{"CRLF inside a value", "A,B\n\"x\r\r\ny\",z\n", 1, "A,B\n\"x\r\r\ny\",z\n"},
		{"quoting", "A,B\n\" a\",\"b,\"\"c\"\"\"\n", 1, "A,B\n\" a\",\"b,\"\"c\"\"\"\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := ReadCSV(strings.NewReader(tc.in), true)
			if err != nil {
				t.Fatal(err)
			}
			if r.NumRows() != tc.rows {
				t.Fatalf("read %d rows, want %d", r.NumRows(), tc.rows)
			}
			if got := writeReadBack(t, r); got != tc.want {
				t.Fatalf("WriteCSV wrote %q, want %q", got, tc.want)
			}
		})
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	in := strings.NewReader("x,1\ny,2\n")
	r, err := ReadCSV(in, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 2 || r.Name(0) != "A" || r.Name(1) != "B" {
		t.Fatalf("got %dx%d names=%v", r.NumRows(), r.NumCols(), r.Names())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), true); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("A,B\n"), true); err == nil {
		t.Fatal("header-only input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("A,B\nx\n"), true); err == nil {
		t.Fatal("ragged record accepted")
	}
}

func TestRowKeyDistinguishesRows(t *testing.T) {
	r := paperR()
	all := r.AllAttrs()
	keys := map[string]bool{}
	for i := 0; i < r.NumRows(); i++ {
		keys[r.RowKey(i, all)] = true
	}
	if len(keys) != 4 {
		t.Fatalf("expected 4 distinct keys, got %d", len(keys))
	}
	// Rows 0 and 3 agree on A and F.
	af := bitset.Of(0, 5)
	if r.RowKey(0, af) != r.RowKey(3, af) {
		t.Fatal("rows 0,3 should agree on AF")
	}
}

func TestContainsRow(t *testing.T) {
	r := paperR()
	other := MustFromRows(r.Names(), [][]string{
		{"a1", "b1", "c1", "d1", "e1", "f1"},
		{"zz", "b1", "c1", "d1", "e1", "f1"},
	})
	if !r.ContainsRow(other, 0) {
		t.Fatal("row 0 should be contained")
	}
	if r.ContainsRow(other, 1) {
		t.Fatal("row 1 should not be contained")
	}
}

func TestSelectRowsPreservesCodes(t *testing.T) {
	r := paperR()
	s := r.SelectRows([]int{3, 1})
	if s.NumRows() != 2 {
		t.Fatalf("rows = %d", s.NumRows())
	}
	if s.Value(0, 0) != "a1" || s.Value(1, 0) != "a2" {
		t.Fatalf("row order/values wrong: %v %v", s.Value(0, 0), s.Value(1, 0))
	}
	// Codes must match the source rows exactly (shared dictionaries).
	for j := 0; j < r.NumCols(); j++ {
		if s.Code(0, j) != r.Code(3, j) || s.Code(1, j) != r.Code(1, j) {
			t.Fatalf("codes not preserved in column %d", j)
		}
	}
	if s.SelectRows(nil).NumRows() != 0 {
		t.Fatal("empty selection should be empty")
	}
}

func TestColumnAndDomainSize(t *testing.T) {
	r := paperR()
	col := r.Column(4) // E: e1,e2,e3,e3
	if len(col) != 4 || col[2] != col[3] {
		t.Fatalf("column E codes: %v", col)
	}
	// FromCodes relation without dictionaries computes domain by scan.
	fc, err := FromCodes([]string{"X"}, [][]Code{{0, 2, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if fc.DomainSize(0) != 3 {
		t.Fatalf("DomainSize = %d", fc.DomainSize(0))
	}
}

func TestReadCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/r.csv"
	if err := os.WriteFile(path, []byte("A,B\nx,1\ny,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := ReadCSVFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 2 {
		t.Fatalf("rows = %d", r.NumRows())
	}
	if _, err := ReadCSVFile(dir+"/missing.csv", true); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestMustFromRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustFromRows([]string{"A"}, [][]string{{"x", "extra"}})
}

func TestStringTruncates(t *testing.T) {
	rows := make([][]string, 30)
	for i := range rows {
		rows[i] = []string{"v"}
	}
	r := MustFromRows([]string{"A"}, rows)
	s := r.String()
	if !strings.Contains(s, "30 rows total") {
		t.Fatalf("String output missing truncation note: %q", s)
	}
}
