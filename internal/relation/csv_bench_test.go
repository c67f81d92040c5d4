package relation_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// benchRelation builds the benchmark harness's planted input name
// (bench/inputs.go: same specs, same planting seed 7) with its rows
// permuted and every column's values renamed by seed.
func benchRelation(t testing.TB, name string, seed int64) *relation.Relation {
	t.Helper()
	spec := map[string]datagen.PlantedSpec{
		"wide": {Bags: datagen.ChainBags(13, 4, 1), RootTuples: 120, ExtPerSep: 3, NoiseCells: 0.01, Seed: 7},
		"tall": {Bags: datagen.ChainBags(9, 3, 1), Domain: 24, RootTuples: 6000, ExtPerSep: 3, NoiseCells: 0.01, Seed: 7},
		"mid":  {Bags: datagen.ChainBags(9, 3, 1), Domain: 24, RootTuples: 1000, ExtPerSep: 3, NoiseCells: 0.01, Seed: 7},
	}[name]
	base, _, err := datagen.Planted(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(base.NumRows())
	cols := make([][]relation.Code, base.NumCols())
	for j := range cols {
		rename := rng.Perm(base.DomainSize(j))
		src := base.Column(j)
		col := make([]relation.Code, len(order))
		for i, row := range order {
			col[i] = relation.Code(rename[src[row]])
		}
		cols[j] = col
	}
	r, err := relation.FromCodes(base.Names(), cols)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// benchCSV is benchRelation written with WriteCSV; "nursery" is
// datagen.Nursery, whose values run from 1 to 13 bytes.
func benchCSV(t testing.TB, name string, seed int64) (*relation.Relation, []byte) {
	t.Helper()
	var r *relation.Relation
	if name == "nursery" {
		r = datagen.Nursery()
	} else {
		r = benchRelation(t, name, seed)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// TestReadCSVBenchInputs: the benchmark's inputs, as its harness writes
// them, read into the relation encoding/csv and a Builder make of them,
// byte for byte. The harness's reference mine reads the same file through
// ReadCSVFile, so its correctness check cannot see a wrong read.
func TestReadCSVBenchInputs(t *testing.T) {
	for _, name := range []string{"wide", "mid", "tall"} {
		for _, seed := range []int64{7, 11} {
			if name == "tall" && testing.Short() {
				continue
			}
			r, data := benchCSV(t, name, seed)
			want, err := relation.ReadCSVRef(bytes.NewReader(data), true)
			if err != nil {
				t.Fatal(err)
			}
			got, err := relation.ReadCSV(bytes.NewReader(data), true)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if d := relation.SameEncoding(got, want); d != nil {
				t.Fatalf("%s seed %d: %v", name, seed, d)
			}
			if !got.Equal(r) {
				t.Fatalf("%s seed %d: read back a different relation", name, seed)
			}
		}
	}
}

// TestReadCSVChunksAgree drives the chunked parse at 1…8 chunks, cut by
// the reader's own rule, on a benchmark input and on quote-heavy random
// inputs, valid and malformed: every chunk count reads the relation, or
// fails with the error, that encoding/csv and a Builder give.
func TestReadCSVChunksAgree(t *testing.T) {
	_, mid := benchCSV(t, "mid", 7)
	inputs := [][]byte{mid}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 150; n++ {
		inputs = append(inputs, randomCSV(rng, 20+rng.Intn(150), 1+rng.Intn(4), n%3 == 0))
	}
	alphabet := []byte("ab,\"\n\r")
	for n := 0; n < 150; n++ {
		data := make([]byte, rng.Intn(400))
		for i := range data {
			data[i] = alphabet[rng.Intn(len(alphabet))]
		}
		inputs = append(inputs, data)
	}
	for _, data := range inputs {
		for _, header := range []bool{true, false} {
			want, werr := relation.ReadCSVRef(bytes.NewReader(data), header)
			for k := 1; k <= 8; k++ {
				got, err := relation.ParseCSV(data, header, k)
				if d := relation.SameRead(got, err, want, werr); d != nil {
					t.Fatalf("%d chunks, header %v, input %.300q: %v", k, header, data, d)
				}
			}
		}
	}
}

// randomCSV writes rows records of cols fields built from commas, quotes,
// \r, \n and \r\n, quoted as WriteCSV would quote them or quoted anyway,
// with line ends \n or \r\n and stray empty lines. With bad, one record
// is malformed: a bare quote, text after a closing quote, an unclosed
// quote or a wrong field count.
func randomCSV(rng *rand.Rand, rows, cols int, bad bool) []byte {
	pieces := []string{"a", "b", "x y", ",", `"`, "\n", "\r\n", "\r", ""}
	badRow := -1
	if bad {
		badRow = rng.Intn(rows)
	}
	var b bytes.Buffer
	for i := 0; i < rows; i++ {
		n := cols
		if i == badRow && rng.Intn(4) == 0 {
			n += 1 - 2*rng.Intn(2)
		}
		for j := 0; j < n; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			var v strings.Builder
			for range rng.Intn(4) {
				v.WriteString(pieces[rng.Intn(len(pieces))])
			}
			s := v.String()
			if strings.ContainsAny(s, ",\"\r\n") || rng.Intn(4) == 0 {
				s = `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
			}
			b.WriteString(s)
		}
		if i == badRow {
			b.WriteString([]string{`x"y`, `,"a"b`, `,"open`}[rng.Intn(3)])
		}
		b.WriteString([]string{"\n", "\r\n", "\n\n", "\r\n\r\n"}[rng.Intn(4)])
	}
	if rng.Intn(3) == 0 {
		b.Truncate(b.Len() - 1)
	}
	return b.Bytes()
}

// BenchmarkReadCSV reads the benchmark's mid and tall inputs (seed 7),
// whose values are 2 or 3 bytes, and nursery's longer ones with ReadCSV,
// and with encoding/csv and a Builder (ref) for the ratio. Run with
// -benchmem and -cpu 1,2: ReadCSV parses on GOMAXPROCS chunks.
func BenchmarkReadCSV(b *testing.B) {
	for _, name := range []string{"mid", "tall", "nursery"} {
		_, data := benchCSV(b, name, 7)
		for _, rd := range []struct {
			name string
			read func([]byte) (*relation.Relation, error)
		}{
			{"read", func(d []byte) (*relation.Relation, error) { return relation.ReadCSV(bytes.NewReader(d), true) }},
			{"ref", func(d []byte) (*relation.Relation, error) { return relation.ReadCSVRef(bytes.NewReader(d), true) }},
		} {
			b.Run(name+"/"+rd.name, func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				for b.Loop() {
					if _, err := rd.read(data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
