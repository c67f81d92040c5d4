package datagen

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestLadderBytes pins every rung of the ladder to the CSV bytes its
// planted spec generates: a change to the planting, the noise or the CSV
// writer moves a digest here before it moves a benchmark baseline.
func TestLadderBytes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows, cols int
		sha256     string
	}{
		{"wide", 3240, 13, "34a8648d5f4f6951eef5a627aa430ce03a73db49b2704b00a3c3a1e95135b792"},
		{"mid", 27000, 9, "fa44eeed8f2f26c305c302a4a2824a595691210ca39948a2cad1104a41df674c"},
		{"tall", 162000, 9, "9d1884c09f96f16bc3e3ebc7a7ba44d0f1d47a013b0ec96361d9eb7bb3293b9e"},
	} {
		r, err := Ladder(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumRows() != tc.rows || r.NumCols() != tc.cols {
			t.Errorf("%s: %d × %d, want %d × %d", tc.name, r.NumRows(), r.NumCols(), tc.rows, tc.cols)
		}
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.sha256 {
			t.Errorf("%s: CSV sha256 %s, want %s", tc.name, got, tc.sha256)
		}
	}
	if _, err := Ladder("huge"); err == nil {
		t.Error("Ladder accepted an unknown rung")
	}
}
