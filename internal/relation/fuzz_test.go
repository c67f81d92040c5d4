package relation

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to ReadCSV, with and without a header.
// ReadCSV must never panic, and a relation it accepts must survive WriteCSV
// followed by ReadCSV(…, true) with equal names and rows.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"A,B\nx,1\ny,2\n",
		"A\n\"\"\nx\n",
		"\"\"\nx\n",
		"A,B\n,\n\"\",x\n",
		"A,B\r\n\"x\r\r\ny\",\" z\"\r\n",
		"A,B\n\"b,\"\"c\"\"\",\\.\n",
		"A,B\nx\n",
		"A,B\n\"x\n",
	} {
		f.Add([]byte(seed), true)
		f.Add([]byte(seed), false)
	}
	f.Fuzz(func(t *testing.T, data []byte, header bool) {
		r, err := ReadCSV(bytes.NewReader(data), header)
		if err != nil {
			return
		}
		writeReadBack(t, r)
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
