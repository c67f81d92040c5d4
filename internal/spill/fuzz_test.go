package spill

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzSpillReopen damages the bytes a store left on disk and opens it
// again. A record's checksummed bytes are its header and payload, not
// its alignment padding. The input picks how many records to Put (1…8),
// how many bytes to cut off the segment's end, and byte flips as
// (offset high, offset low, xor) triples. Reopening must not panic or
// fail, every record served must equal what was Put, a record with a
// flipped checksummed byte or cut short must be a miss, and an
// undamaged segment must serve every record.
func FuzzSpillReopen(f *testing.F) {
	f.Add(uint8(3), uint16(0), []byte{})
	f.Add(uint8(4), uint16(9), []byte{})
	f.Add(uint8(4), uint16(0), []byte{0, 40, 0xff})
	f.Add(uint8(2), uint16(0), []byte{0, 2, 1})              // file magic
	f.Add(uint8(5), uint16(3), []byte{0, 60, 0x80, 1, 2, 4}) // record header and a payload byte
	f.Fuzz(func(t *testing.T, n uint8, cut uint16, flips []byte) {
		dir := t.TempDir()
		const shape = 0x5eed
		s, err := Open(Config{Dir: dir, ShapeHash: shape, Logger: discardLogger()})
		if err != nil {
			t.Fatal(err)
		}
		recs := int(n%8) + 1
		flats := make([]Flat, recs)
		offs := make([]int64, recs)
		off := int64(fileHeaderSize)
		for i := range flats {
			flats[i] = testFlat(int32(i+1), 3+5*i, 1+i%3)
			if err := s.Put(uint64(i+1), flats[i]); err != nil {
				t.Fatal(err)
			}
			offs[i] = off
			off += recordLen(flats[i])
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(dir, "spill-00000001.seg")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != off {
			t.Fatalf("segment is %d bytes, want %d", len(data), off)
		}
		orig := bytes.Clone(data)
		for i := 0; i+3 <= len(flips); i += 3 {
			data[(int(flips[i])<<8|int(flips[i+1]))%len(data)] ^= flips[i+2]
		}
		size := len(data) - int(cut)%len(data)
		if err := os.WriteFile(path, data[:size], 0o644); err != nil {
			t.Fatal(err)
		}

		s, err = Open(Config{Dir: dir, ShapeHash: shape, Logger: discardLogger()})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s.Close()
		clean := size == len(data) && bytes.Equal(data, orig)
		for i, want := range flats {
			got, ok := s.Get(uint64(i + 1))
			damaged := offs[i]+recordLen(want) > int64(size)
			for at := offs[i]; at < offs[i]+recHeaderSize+want.PayloadBytes() && !damaged; at++ {
				damaged = data[at] != orig[at]
			}
			switch {
			case ok && damaged:
				t.Fatalf("record %d is damaged but was served", i+1)
			case ok && !reflect.DeepEqual(got, want):
				t.Fatalf("record %d served as %+v, Put as %+v", i+1, got, want)
			case !ok && clean:
				t.Fatalf("record %d of an undamaged segment is a miss", i+1)
			}
		}
	})
}
