package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/bitset"
	"repro/internal/par"
)

// minChunkBytes is the least input one parse worker takes: on a smaller
// chunk its goroutine and its share of the dictionary merge cost more
// than the split saves.
const minChunkBytes = 64 << 10

// ReadCSV reads a relation from CSV. If header is true the first record
// names the attributes; otherwise attributes are named by letters A, B, ...
//
// The input is read whole, then parsed in chunks on up to GOMAXPROCS
// goroutines. A reader with a Len method (bytes.Reader, strings.Reader,
// bytes.Buffer) is read into one buffer of that size; any other into a
// buffer that doubles as it fills, so reading can briefly hold two to
// three times the input's size.
//
// The dialect is encoding/csv's with FieldsPerRecord = -1:
// comma-separated fields, quoted fields with "" escapes and embedded
// newlines, \r\n read as \n inside and outside quotes, empty lines
// skipped and a final \r dropped. Names, codes and dictionaries equal what
// encoding/csv feeding a Builder makes of the same bytes, and so does the
// error: a malformed record is a *csv.ParseError wrapping csv.ErrQuote or
// csv.ErrBareQuote, with encoding/csv's lines and column.
func ReadCSV(rd io.Reader, header bool) (*Relation, error) {
	var buf bytes.Buffer
	if l, ok := rd.(interface{ Len() int }); ok {
		// bytes.Reader, strings.Reader, bytes.Buffer: read in one piece.
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(rd); err != nil {
		return nil, fmt.Errorf("relation: reading CSV: %w", err)
	}
	data := buf.Bytes()
	return parseCSV(data, header, csvChunks(len(data)))
}

// ReadCSVFile reads a relation from a CSV file, read whole into memory
// and parsed as ReadCSV parses it.
func ReadCSVFile(path string, header bool) (*Relation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseCSV(data, header, csvChunks(len(data)))
}

// csvChunks is the number of chunks ReadCSV parses n bytes in: one per
// core, each at least minChunkBytes.
func csvChunks(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/minChunkBytes))
}

// parseCSV parses data in up to chunks chunks on up to GOMAXPROCS
// goroutines. The first record is read alone first: it fixes the arity
// every other record must have (and the names, under a header). The rest
// is cut at record ends (cutRecords), each chunk dictionary-encodes its
// columns with chunk-local codes (csvChunk.parse), and the merge walks
// the chunks in file order: it reports the first chunk's error, if any,
// and renumbers every chunk's local codes in first-occurrence order,
// which is the order a Builder fed record by record assigns them in.
func parseCSV(data []byte, header bool, chunks int) (*Relation, error) {
	s := csvScanner{data: data}
	head, nl, ok := s.firstLine()
	if !ok {
		return nil, errors.New("relation: empty CSV input")
	}
	if err := s.record(head, nl); err != nil {
		return nil, fmt.Errorf("relation: reading CSV: %w", err)
	}
	if len(s.fields) > bitset.MaxAttrs {
		return nil, ErrTooManyColumns
	}
	names := make([]string, len(s.fields))
	// Without a header the first record is data: the chunks read it again
	// from the start. line and record number the lines and records before
	// the current chunk.
	rest, line, record := data, 0, 1
	if header {
		for j, f := range s.fields {
			names[j] = string(s.bytes(f))
		}
		rest, line, record = data[s.pos:], s.line, 2
	} else {
		for j := range names {
			names[j] = defaultName(j)
		}
	}

	// The codes go straight into the relation's columns, chunk i's from
	// bound[i]. A chunk's records, a failing one included, number at most
	// its lines + 1 and at most its bytes / n + 1: each record but the
	// last or failing one takes a line, and n fields, n − 1 commas and a
	// line end.
	cuts := cutRecords(rest, chunks)
	parts := make([]csvChunk, len(cuts)-1)
	bound := make([]int, len(parts)+1)
	for i := range parts {
		data := rest[cuts[i]:cuts[i+1]]
		parts[i].data = data
		parts[i].lines = bytes.Count(data, []byte{'\n'})
		bound[i+1] = bound[i] + min(parts[i].lines, len(data)/len(names)) + 1
	}
	cols := make([][]Code, len(names))
	for j := range cols {
		cols[j] = make([]Code, bound[len(parts)])
	}
	workers := min(len(parts), runtime.GOMAXPROCS(0))
	par.For(len(parts), workers, func() (func(int) bool, func()) {
		return func(i int) bool {
			parts[i].parse(cols, bound[i], bound[i+1])
			return true
		}, nil
	})

	rows := 0
	for i := range parts {
		p := &parts[i]
		if p.err != nil {
			e := *p.err
			e.StartLine += line
			e.Line += line
			return nil, fmt.Errorf("relation: reading CSV: %w", &e)
		}
		if p.badFields >= 0 {
			return nil, fmt.Errorf("relation: CSV record %d has %d fields, want %d", record+p.rows, p.badFields, len(names))
		}
		line += p.lines
		record += p.rows
		rows += p.rows
	}
	if rows == 0 {
		return nil, errors.New("relation: CSV has a header but no data rows")
	}

	// Column by column, the first chunk's dictionary grows into the
	// relation's: each later chunk's values, in its local code order,
	// either are found there or take the next code, and the chunk's codes
	// are renumbered and moved down to follow the rows before them.
	first := &parts[0]
	par.For(len(names), workers, func() (func(int) bool, func()) {
		var remap []Code
		return func(j int) bool {
			col, at := cols[j], first.rows
			for i := 1; i < len(parts); i++ {
				remap = remap[:0]
				for _, v := range parts[i].dicts[j].vals {
					remap = append(remap, first.dicts[j].code([]byte(v)))
				}
				for r, c := range col[bound[i] : bound[i]+parts[i].rows] {
					col[at+r] = remap[c]
				}
				at += parts[i].rows
			}
			cols[j] = col[:rows]
			return true
		}, nil
	})
	dicts := make([][]string, len(names))
	for j := range dicts {
		dicts[j] = first.dicts[j].vals
	}
	return &Relation{names: names, cols: cols, dicts: dicts, rows: rows}, nil
}

// cutRecords cuts data into at most k chunks of about equal size and
// returns their bounds: 0, then each chunk's end, the last len(data).
// Every inner bound follows a '\n' preceded by an even number of '"'
// bytes. Up to the first byte encoding/csv rejects, a '"' opens, escapes
// in pairs or closes a quoted field, so a newline there has an even
// count before it exactly when it ends a record (or an empty line).
// Chunks past that byte may be cut anywhere: the merge never reads them,
// since the chunk that holds the byte starts on a record and reports it.
func cutRecords(data []byte, k int) []int {
	cuts := append(make([]int, 0, k+1), 0)
	pos, odd := 0, false
	for i := 1; i < k; i++ {
		target := int(int64(i) * int64(len(data)) / int64(k))
		if target <= pos {
			continue
		}
		odd = odd != (bytes.Count(data[pos:target], quote)%2 == 1)
		pos = target
		for {
			nl := bytes.IndexByte(data[pos:], '\n')
			if nl < 0 {
				return append(cuts, len(data))
			}
			odd = odd != (bytes.Count(data[pos:pos+nl], quote)%2 == 1)
			pos += nl + 1
			if !odd {
				break
			}
		}
		if pos == len(data) {
			break
		}
		cuts = append(cuts, pos)
	}
	return append(cuts, len(data))
}

var quote = []byte{'"'}

// csvChunk is one chunk's parse: its records' codes under chunk-local
// dictionaries in first-occurrence order.
type csvChunk struct {
	data  []byte
	lines int // newlines in data
	dicts []colDict
	rows  int // records read without error
	// The first error: a malformed record (lines counted from the chunk's
	// start), or a record of badFields fields (-1: none).
	err       *csv.ParseError
	badFields int
}

// parse reads the chunk's records until the first error, writing record
// r's codes at cols[j][lo+r], below hi. The chunk starts on a record and
// ends on a line end or at the end of the input.
func (c *csvChunk) parse(cols [][]Code, lo, hi int) {
	c.badFields = -1
	c.dicts = make([]colDict, len(cols))
	out := make([][]Code, len(cols))
	for j := range out {
		c.dicts[j].codes = make(map[string]Code)
		out[j] = cols[j][lo:hi]
	}
	s := csvScanner{data: c.data}
	for {
		line, nl, ok := s.firstLine()
		if !ok {
			return
		}
		if c.err = s.record(line, nl); c.err != nil {
			return
		}
		if len(s.fields) != len(out) {
			c.badFields = len(s.fields)
			return
		}
		for j, f := range s.fields {
			out[j][c.rows] = c.dicts[j].code(s.bytes(f))
		}
		c.rows++
	}
}

// colDict is one column's dictionary: its distinct values in code order
// and their codes. Looking up a known value allocates nothing; only a new
// value is copied into a string.
type colDict struct {
	vals  []string
	codes map[string]Code
}

// code returns v's code, giving v the next code if it is new.
func (d *colDict) code(v []byte) Code {
	if c, ok := d.codes[string(v)]; ok {
		return c
	}
	c := Code(len(d.vals))
	d.vals = append(d.vals, string(v))
	d.codes[d.vals[c]] = c
	return c
}

// csvScanner reads records off a byte slice the way encoding/csv's Reader
// reads them with FieldsPerRecord = -1, line by line: same fields, same
// errors, lines numbered from the slice's start.
type csvScanner struct {
	data   []byte
	pos    int        // start of the next line
	line   int        // lines read
	buf    []byte     // the current record's quoted fields, unescaped
	fields []csvField // the current record
}

// csvField is a field's bytes: data[lo:hi], or buf[lo:hi] if it was
// quoted. It holds no pointer, so storing one needs no write barrier.
type csvField struct {
	lo, hi int
	quoted bool
}

// bytes returns f's bytes, valid until the next record is read.
func (s *csvScanner) bytes(f csvField) []byte {
	if f.quoted {
		return s.buf[f.lo:f.hi]
	}
	return s.data[f.lo:f.hi]
}

// offset returns the index in s.data of b, a slice of s.data: both end
// their capacity at the same byte.
func (s *csvScanner) offset(b []byte) int {
	return cap(s.data) - cap(b)
}

// readLine returns the next line without its line end, which is '\n' or
// "\r\n", and whether it had one; a final '\r' of the data is dropped
// too. ok is false at the end of the data.
func (s *csvScanner) readLine() (line []byte, nl, ok bool) {
	line = s.data[s.pos:]
	if len(line) == 0 {
		return nil, false, false
	}
	s.line++
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line, nl = line[:i], true
		s.pos += i + 1
	} else {
		s.pos = len(s.data)
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nl, true
}

// firstLine reads lines up to the first that is not empty: a record's
// first line.
func (s *csvScanner) firstLine() (line []byte, nl, ok bool) {
	line, nl, ok = s.readLine()
	for ok && len(line) == 0 {
		line, nl, ok = s.readLine()
	}
	return line, nl, ok
}

// record reads the record that starts with line, the last line read, into
// s.fields.
func (s *csvScanner) record(line []byte, nl bool) *csv.ParseError {
	s.buf, s.fields = s.buf[:0], s.fields[:0]
	// recLine is the record's first line, posLine the last line with
	// bytes on it, col the 1-based byte column in line.
	recLine, posLine, col := s.line, s.line, 1
field:
	for {
		if len(line) == 0 || line[0] != '"' {
			i := 0
			for ; i < len(line) && line[i] != ','; i++ {
				if line[i] == '"' {
					return &csv.ParseError{StartLine: recLine, Line: s.line, Column: col + i, Err: csv.ErrBareQuote}
				}
			}
			lo := s.offset(line)
			s.fields = append(s.fields, csvField{lo: lo, hi: lo + i})
			if i == len(line) {
				return nil
			}
			line, col = line[i+1:], col+i+1
			continue
		}
		line, col = line[1:], col+1
		start := len(s.buf)
		for {
			if i := bytes.IndexByte(line, '"'); i >= 0 {
				s.buf = append(s.buf, line[:i]...)
				line, col = line[i+1:], col+i+1
				switch {
				case len(line) == 0:
					s.fields = append(s.fields, csvField{lo: start, hi: len(s.buf), quoted: true})
					return nil
				case line[0] == '"':
					s.buf = append(s.buf, '"')
					line, col = line[1:], col+1
				case line[0] == ',':
					s.fields = append(s.fields, csvField{lo: start, hi: len(s.buf), quoted: true})
					line, col = line[1:], col+1
					continue field
				default:
					return &csv.ParseError{StartLine: recLine, Line: s.line, Column: col - 1, Err: csv.ErrQuote}
				}
			} else if len(line) > 0 || nl {
				// The field goes on past this line.
				s.buf = append(s.buf, line...)
				col += len(line)
				if nl {
					s.buf = append(s.buf, '\n')
					col++
				}
				if line, nl, _ = s.readLine(); len(line) > 0 || nl {
					posLine, col = posLine+1, 1
				}
			} else {
				return &csv.ParseError{StartLine: recLine, Line: posLine, Column: col, Err: csv.ErrQuote}
			}
		}
	}
}
