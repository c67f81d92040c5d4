package relation

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/bitset"
)

// readCSVRef reads CSV through encoding/csv and a Builder, record by
// record: the oracle ReadCSV is held to, byte for byte and error for error.
func readCSVRef(rd io.Reader, header bool) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	first, err := cr.Read()
	if err == io.EOF {
		return nil, errors.New("relation: empty CSV input")
	}
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV: %w", err)
	}
	names := first
	if !header {
		names = make([]string, len(first))
		for j := range names {
			names[j] = defaultName(j)
		}
	}
	if len(names) > bitset.MaxAttrs {
		return nil, ErrTooManyColumns
	}
	b := NewBuilder(names)
	if !header {
		b.AddRow(first)
	}
	for record := 2; ; record++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV: %w", err)
		}
		if len(rec) != len(names) {
			return nil, fmt.Errorf("relation: CSV record %d has %d fields, want %d", record, len(rec), len(names))
		}
		b.AddRow(rec)
	}
	r := b.Relation()
	if r.NumRows() == 0 {
		return nil, errors.New("relation: CSV has a header but no data rows")
	}
	return r, nil
}

// sameEncoding reports how two relations differ in names, rows, code
// columns or dictionaries, or nil when they are byte-identical.
func sameEncoding(a, b *Relation) error {
	if !slices.Equal(a.names, b.names) {
		return fmt.Errorf("names %q, want %q", a.names, b.names)
	}
	if a.rows != b.rows {
		return fmt.Errorf("%d rows, want %d", a.rows, b.rows)
	}
	for j := range a.cols {
		if !slices.Equal(a.cols[j], b.cols[j]) {
			return fmt.Errorf("column %d codes differ", j)
		}
		if !slices.Equal(a.dicts[j], b.dicts[j]) {
			return fmt.Errorf("column %d dictionary %q, want %q", j, a.dicts[j], b.dicts[j])
		}
	}
	return nil
}

// sameRead reports how a read's outcome differs from the oracle's: the
// relation as sameEncoding sees it, or the error by its text and, for a
// *csv.ParseError, by its sentinel and lines.
func sameRead(got *Relation, err error, want *Relation, werr error) error {
	switch {
	case err == nil && werr == nil:
		return sameEncoding(got, want)
	case err == nil || werr == nil:
		return fmt.Errorf("error %v, want %v", err, werr)
	case err.Error() != werr.Error():
		return fmt.Errorf("error %q, want %q", err, werr)
	}
	var pe, wpe *csv.ParseError
	if errors.As(werr, &wpe) {
		if !errors.As(err, &pe) {
			return fmt.Errorf("error %v is no *csv.ParseError", err)
		}
		if *pe != *wpe {
			return fmt.Errorf("parse error %+v, want %+v", *pe, *wpe)
		}
	}
	return nil
}
