package relation

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// FuzzReadCSV is differential: on arbitrary bytes, with and without a
// header, ReadCSV — and the chunked parse at 2 and 3 chunks — must
// accept exactly what encoding/csv feeding a Builder accepts, with
// byte-identical names, code columns and dictionaries, or fail with the
// same error (for a *csv.ParseError: the same sentinel, lines and column).
// A relation it accepts must survive WriteCSV followed by ReadCSV(…, true)
// with equal names and rows.
//
// The chunks are parsed on one goroutine: the order goroutines claim
// chunks in would make coverage, hence the fuzzer's corpus, flaky.
func FuzzReadCSV(f *testing.F) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wide := strings.Repeat("x,", 64) + "x\n"
	for _, seed := range []string{
		"A,B\nx,1\ny,2\n",
		"A\n\"\"\nx\n",
		"\"\"\nx\n",
		"A,B\n,\n\"\",x\n",
		"A,B\r\n\"x\r\r\ny\",\" z\"\r\n",
		"A,B\n\"b,\"\"c\"\"\",\\.\n",
		"A,B\nx\n",
		"A,B\n\"x\n",
		"A,B\n\"a,b\",\"c\nd\"\n\"e\"\"f\",g\n",
		"A,B\r\n\"x\r\ny\",z\r\nu,v\r\n",
		"A,B\nx\ry,z\n\r",
		"A,B\n\nx,y\n\n\nz,w\n",
		"A,B\nx,y",
		"A,B\nx,y\r",
		"A,B\nx\"y,z\n",
		"A,B\n\"x\"y,z\n",
		"A,B\n\"x\n\r",
		"A,B\nx,y,z\n",
		"A,B\n",
		"A,B,C\n,,\nx\n",
		",,,,\n,,,,\nx\n",
		wide,
		"A\n" + wide,
	} {
		f.Add([]byte(seed), true)
		f.Add([]byte(seed), false)
	}
	f.Fuzz(func(t *testing.T, data []byte, header bool) {
		want, werr := readCSVRef(bytes.NewReader(data), header)
		r, err := ReadCSV(bytes.NewReader(data), header)
		if d := sameRead(r, err, want, werr); d != nil {
			t.Fatalf("ReadCSV(%q, %v): %v", data, header, d)
		}
		for _, k := range []int{2, 3} {
			got, err := parseCSV(data, header, k)
			if d := sameRead(got, err, want, werr); d != nil {
				t.Fatalf("%d chunks of %q, header %v: %v", k, data, header, d)
			}
		}
		if err == nil {
			writeReadBack(t, r)
		}
	})
}

// writeReadBack writes r with WriteCSV, reads the bytes back with a header
// and fails t unless the names and every row are equal. It returns what
// WriteCSV wrote.
func writeReadBack(t testing.TB, r *Relation) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	back, err := ReadCSV(&buf, true)
	if err != nil {
		t.Fatalf("reading back %q: %v", out, err)
	}
	if !slices.Equal(back.Names(), r.Names()) || back.NumRows() != r.NumRows() {
		t.Fatalf("read back %q × %d rows from %q, wrote %q × %d", back.Names(), back.NumRows(), out, r.Names(), r.NumRows())
	}
	for i := 0; i < r.NumRows(); i++ {
		if !slices.Equal(back.Row(i), r.Row(i)) {
			t.Fatalf("row %d read back as %q from %q, wrote %q", i, back.Row(i), out, r.Row(i))
		}
	}
	return out
}
