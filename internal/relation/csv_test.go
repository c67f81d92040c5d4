package relation

import (
	"bytes"
	"fmt"
	"testing"
)

// TestEqualKeysRowsUnambiguously: rows whose values differ only in where
// one value ends and the next begins are different rows.
func TestEqualKeysRowsUnambiguously(t *testing.T) {
	a := MustFromRows([]string{"X", "Y"}, [][]string{{"a\x00", "b"}})
	b := MustFromRows([]string{"X", "Y"}, [][]string{{"a", "\x00b"}})
	if a.Equal(b) || b.Equal(a) {
		t.Fatal(`{"a\x00","b"} equals {"a","\x00b"}`)
	}
	if !a.Equal(MustFromRows([]string{"X", "Y"}, [][]string{{"a\x00", "b"}})) {
		t.Fatal("a relation differs from its copy")
	}
}

// TestReadCSVAllocs is the parser's allocation gate: doubling the rows
// over the same distinct values adds no allocation, at one chunk and at
// four. Known values are looked up without a string; the code columns are
// sized once from the chunk's newline count.
func TestReadCSVAllocs(t *testing.T) {
	input := func(rows int) []byte {
		var b bytes.Buffer
		b.WriteString("A,B,C,D,E,F,G,H,I\n")
		for i := 0; i < rows; i++ {
			for j := 0; j < 9; j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "v%d", (i*(j+1)+i/7)%24)
			}
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	small, large := input(20000), input(40000)
	for _, k := range []int{1, 4} {
		allocs := func(data []byte) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := parseCSV(data, true, k); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := allocs(small), allocs(large)
		t.Logf("%d chunks: %v allocs at 20k rows, %v at 40k", k, a, b)
		if b > a {
			t.Errorf("%d chunks: %v allocs at 40k rows > %v at 20k", k, b, a)
		}
	}
}
