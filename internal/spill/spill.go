// Package spill is the disk tier under the PLI partition cache: an
// append-only segment-file store for flat (rows + offsets) partitions,
// so a cache eviction can demote a partition to disk instead of
// discarding it into a future rebuild cascade, and a later miss can
// promote it back with one sequential read.
//
// A store owns one directory of numbered segment files. Each segment
// starts with a file header stamping the format version and the dataset
// shape hash (a store refuses — and discards — segments written over a
// different relation, so spill files from a dead daemon can never poison
// a restart with stale partitions). Records are appended one per spilled
// partition: a fixed header (attribute-set key, array lengths, the fused
// entropy sum and the partition's recompute cost) followed by the raw
// little-endian row-id and offset arrays, CRC-checksummed end to end. A
// record is exactly the flat in-memory layout of a pli.Partition; Get
// reads it back by pread into arrays the caller owns.
//
// Durability is deliberately loose: nothing is fsynced on Put, and a
// torn tail (daemon killed mid-spill) is detected by the bounds and
// checksum validation and treated as a cache miss, never as an error —
// the spill tier is a cost optimization, and every failure mode must
// degrade to "recompute", not "corrupt" or "crash". Open rebuilds the
// index by scanning record headers, so a clean shutdown and a crash
// reopen the same way.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Flat is the raw shape of a flat partition — the fields pli.Partition
// stores, without the type (this package must not import pli: the cache
// imports us). Rows and Offsets returned by Get are fresh copies the
// caller owns.
type Flat struct {
	NumRows int     // rows of the underlying relation
	Rows    []int32 // concatenated cluster row ids
	Offsets []int32 // cluster boundaries; len = clusters+1, or 0
	Hsum    int64   // fused entropy sum Σ|c|·log2|c|, fixed point (hsum.Scale of NumRows)
	Cost    float64 // recompute cost the cache priced the partition at
}

// PayloadBytes is the on-disk weight of the record's arrays.
func (f Flat) PayloadBytes() int64 { return 4 * int64(len(f.Rows)+len(f.Offsets)) }

const (
	fileMagic = "MAIMSPL1"
	// formatVersion 2 stores the entropy sum as a fixed-point integer
	// where version 1 stored a float64 in the same eight bytes. A directory
	// written by an earlier version opens cold (reopen).
	formatVersion  = 2
	fileHeaderSize = 32
	recHeaderSize  = 48
	recMagic       = 0x4C495053 // "SPIL"

	defaultSegmentBytes = 8 << 20
	minSegmentBytes     = 64 << 10

	// legacyIndexName is the index snapshot earlier builds wrote at
	// Close. Open deletes it unread: the segment scan is the index.
	legacyIndexName = "index.json"
)

// errTooLarge rejects a Put whose record alone exceeds the byte budget.
var errTooLarge = errors.New("spill: record exceeds the spill byte budget")

// errClosed rejects operations on a closed store.
var errClosed = errors.New("spill: store is closed")

// errOtherFormat marks a well-formed segment written at another
// formatVersion: its records must not be decoded by this build.
var errOtherFormat = errors.New("segment written at another format version")

// Config tunes Open.
type Config struct {
	// Dir is the spill directory; created if missing. One store (and one
	// relation) per directory — the shape hash enforces it.
	Dir string
	// ShapeHash stamps every segment with the dataset's shape; segments
	// carrying a different stamp are discarded at Open with a log line.
	ShapeHash uint64
	// MaxBytes bounds the store's on-disk footprint; past it the oldest
	// sealed segments are deleted (their partitions become plain misses).
	// <= 0 means unlimited.
	MaxBytes int64
	// SegmentBytes is the rotation threshold of the active segment; 0
	// picks a default (8 MiB, shrunk to a quarter of MaxBytes when that
	// is smaller, so a tight budget still gets eviction granularity).
	SegmentBytes int64
	// Logger receives the store's structured events (shape mismatches,
	// torn tails, budget evictions). nil uses slog.Default.
	Logger *slog.Logger
}

// recRef locates one record: its live segment and the record's offset
// in that file.
type recRef struct {
	seg *segment
	off int64
}

// segment is one on-disk file of the store. A sealed segment is
// immutable; the active (last) segment grows by appends. Both are read
// by pread.
type segment struct {
	path     string
	f        *os.File
	size     int64
	writable bool // still accepting appends (the active segment)
}

// Store is an append-only spill store. Safe for concurrent use.
type Store struct {
	cfg    Config
	log    *slog.Logger
	segMax int64

	mu      sync.Mutex
	segs    []*segment // ascending seq; the last one is active (may be nil)
	index   map[uint64]recRef
	bytes   int64 // file bytes across live segments
	nextSeq int64
	closed  bool
}

// Open opens (or creates) the spill store under cfg.Dir. Existing
// segments with the right shape stamp are re-opened and their record
// headers scanned, so a restarted process starts with a warm spill index.
// Segments stamped with a different shape hash are discarded with a
// structured log line: a mismatched spill directory must never poison a
// mine, so it degrades to an empty store. So does a directory an earlier
// build wrote at another format version — its segments are deleted
// unread, with one log line, and the tier is rebuilt.
func Open(cfg Config) (*Store, error) {
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	if cfg.Dir == "" {
		return nil, errors.New("spill: Config.Dir must not be empty")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill: creating %s: %w", cfg.Dir, err)
	}
	segMax := cfg.SegmentBytes
	if segMax <= 0 {
		segMax = defaultSegmentBytes
	}
	if cfg.MaxBytes > 0 && segMax > cfg.MaxBytes/4 {
		segMax = cfg.MaxBytes / 4
	}
	if segMax < minSegmentBytes {
		segMax = minSegmentBytes
	}
	s := &Store{cfg: cfg, log: log, segMax: segMax, index: make(map[uint64]recRef), nextSeq: 1}
	if err := s.reopen(); err != nil {
		return nil, err
	}
	s.enforceBudgetLocked()
	return s, nil
}

// segPath names segment seq under the store's directory.
func (s *Store) segPath(seq int64) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("spill-%08d.seg", seq))
}

// reopen restores the store from an existing directory by scanning its
// segments. All recovered segments are sealed; the next Put opens a
// fresh active segment.
func (s *Store) reopen() error {
	seqs, err := s.listSegments()
	if err != nil {
		return err
	}
	os.Remove(filepath.Join(s.cfg.Dir, legacyIndexName))
	otherFormat := 0
	for _, seq := range seqs {
		path := s.segPath(seq)
		seg, err := s.openSealed(path)
		if errors.Is(err, errOtherFormat) {
			otherFormat++
			os.Remove(path)
			continue
		}
		if err != nil {
			s.log.Warn("spill: discarding unreadable segment", "dir", s.cfg.Dir, "segment", path, "error", err)
			os.Remove(path)
			continue
		}
		if seg == nil { // shape mismatch, already logged and removed
			continue
		}
		s.segs = append(s.segs, seg)
		s.bytes += seg.size
		if seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
		s.scanSegment(seg)
	}
	if otherFormat > 0 {
		s.log.Warn("spill: directory was written at another format version; starting cold",
			"dir", s.cfg.Dir, "segments_discarded", otherFormat, "format_version", formatVersion)
	}
	return nil
}

// listSegments returns the sequence numbers of the directory's segment
// files, ascending.
func (s *Store) listSegments() ([]int64, error) {
	ents, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("spill: reading %s: %w", s.cfg.Dir, err)
	}
	var seqs []int64
	for _, e := range ents {
		var seq int64
		if n, _ := fmt.Sscanf(e.Name(), "spill-%d.seg", &seq); n == 1 {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// openSealed opens one pre-existing segment as sealed, its header
// validated. Returns (nil, nil) after discarding a segment whose shape
// stamp does not match the store's relation, and errOtherFormat for one
// written at another format version.
func (s *Store) openSealed(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	var hdr [fileHeaderSize]byte
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, fileHeaderSize), hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("short file header: %w", err)
	}
	if string(hdr[0:8]) != fileMagic {
		f.Close()
		return nil, errors.New("bad segment magic")
	}
	if binary.LittleEndian.Uint32(hdr[8:12]) != formatVersion {
		f.Close()
		return nil, errOtherFormat
	}
	if shape := binary.LittleEndian.Uint64(hdr[16:24]); shape != s.cfg.ShapeHash {
		f.Close()
		os.Remove(path)
		s.log.Warn("spill: discarding segment from a different dataset shape",
			"dir", s.cfg.Dir, "segment", path,
			"segment_shape", fmt.Sprintf("%016x", shape),
			"dataset_shape", fmt.Sprintf("%016x", s.cfg.ShapeHash))
		return nil, nil
	}
	return &segment{path: path, f: f, size: st.Size()}, nil
}

// scanSegment walks a sealed segment's records and indexes the valid
// prefix: the first record whose header, bounds, or lengths do not hold
// marks a torn tail (daemon killed mid-spill) — everything before it
// stays served, everything after is ignored. Payload checksums are
// verified lazily at Get, so the scan stays header-speed.
func (s *Store) scanSegment(seg *segment) {
	off := int64(fileHeaderSize)
	for off+recHeaderSize <= seg.size {
		var hdr [recHeaderSize]byte
		if _, err := seg.f.ReadAt(hdr[:], off); err != nil {
			break
		}
		key, _, _, recLen, ok := parseRecHeader(hdr[:])
		if !ok || off+recLen > seg.size {
			s.log.Warn("spill: segment has a torn tail; serving the valid prefix",
				"dir", s.cfg.Dir, "segment", seg.path, "valid_bytes", off, "file_bytes", seg.size)
			seg.size = off
			break
		}
		s.index[key] = recRef{seg: seg, off: off}
		off += recLen
	}
}

// parseRecHeader validates the fixed fields of one record header and
// returns the key, array lengths and full (padded) record length.
func parseRecHeader(hdr []byte) (key uint64, numIDs, numOff int, recLen int64, ok bool) {
	if binary.LittleEndian.Uint32(hdr[0:4]) != recMagic {
		return 0, 0, 0, 0, false
	}
	key = binary.LittleEndian.Uint64(hdr[8:16])
	numIDs = int(binary.LittleEndian.Uint32(hdr[20:24]))
	numOff = int(binary.LittleEndian.Uint32(hdr[24:28]))
	recLen = int64(binary.LittleEndian.Uint32(hdr[28:32]))
	if numIDs < 0 || numOff < 0 || recLen < recHeaderSize+4*int64(numIDs+numOff) {
		return 0, 0, 0, 0, false
	}
	return key, numIDs, numOff, recLen, true
}

// Contains reports whether key has a valid index entry (the record's
// checksum is still only verified at Get).
func (s *Store) Contains(key uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	_, ok := s.index[key]
	return ok
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the store's on-disk footprint (live segment file bytes).
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Put appends one partition record and indexes it, rotating and
// budget-evicting as needed. A failed Put leaves the store consistent
// and the partition simply un-spilled (the caller drops it).
func (s *Store) Put(key uint64, f Flat) error {
	recLen := recordLen(f)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if s.cfg.MaxBytes > 0 && recLen+fileHeaderSize > s.cfg.MaxBytes {
		return errTooLarge
	}
	seg, err := s.activeLocked(recLen)
	if err != nil {
		return err
	}
	off := seg.size
	if err := writeRecord(seg.f, off, key, f, recLen); err != nil {
		// The tail may be torn; freeze the segment at its last good byte
		// so later appends cannot interleave with the partial record.
		s.log.Warn("spill: write failed; sealing segment at its valid prefix",
			"dir", s.cfg.Dir, "segment", seg.path, "error", err)
		seg.writable = false
		return err
	}
	seg.size += recLen
	s.bytes += recLen
	s.index[key] = recRef{seg: seg, off: off}
	if seg.size >= s.segMax {
		seg.writable = false
	}
	s.enforceBudgetLocked()
	return nil
}

// activeLocked returns the segment a need-byte record appends to,
// creating one (with its file header) if the store has none. An active
// segment that could not take the record and still fit MaxBytes is
// sealed first: the record starts a fresh segment, and the budget can
// then evict the old one.
func (s *Store) activeLocked(need int64) (*segment, error) {
	if n := len(s.segs); n > 0 {
		seg := s.segs[n-1]
		if seg.writable && (s.cfg.MaxBytes <= 0 || seg.size+need <= s.cfg.MaxBytes) {
			return seg, nil
		}
		seg.writable = false
	}
	seq := s.nextSeq
	s.nextSeq++
	path := s.segPath(seq)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("spill: creating segment: %w", err)
	}
	var hdr [fileHeaderSize]byte
	copy(hdr[0:8], fileMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], formatVersion)
	binary.LittleEndian.PutUint64(hdr[16:24], s.cfg.ShapeHash)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("spill: writing segment header: %w", err)
	}
	seg := &segment{path: path, f: f, size: fileHeaderSize, writable: true}
	s.segs = append(s.segs, seg)
	s.bytes += fileHeaderSize
	return seg, nil
}

// enforceBudgetLocked deletes the oldest sealed segments until the store
// fits MaxBytes. Their partitions become plain cache misses.
func (s *Store) enforceBudgetLocked() {
	if s.cfg.MaxBytes <= 0 {
		return
	}
	for s.bytes > s.cfg.MaxBytes && len(s.segs) > 0 && !s.segs[0].writable {
		victim := s.segs[0]
		s.segs = s.segs[1:]
		s.dropSegmentLocked(victim)
	}
}

// dropSegmentLocked removes a segment's index entries, closes its file
// handle, and unlinks it.
func (s *Store) dropSegmentLocked(victim *segment) {
	dropped := 0
	for k, ref := range s.index {
		if ref.seg == victim {
			delete(s.index, k)
			dropped++
		}
	}
	s.bytes -= victim.size
	victim.f.Close()
	os.Remove(victim.path)
	s.log.Debug("spill: dropped oldest segment for the byte budget",
		"dir", s.cfg.Dir, "segment", victim.path, "records", dropped, "bytes", victim.size)
}

// Get reads the record for key back. ok is false on any miss — absent,
// torn, checksum-failed, or closed — and a failed record is unindexed so
// the next request goes straight to recompute.
func (s *Store) Get(key uint64) (Flat, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Flat{}, false
	}
	ref, ok := s.index[key]
	if !ok {
		return Flat{}, false
	}
	f, err := readRecord(ref.seg, ref.off, key)
	if err != nil {
		delete(s.index, key)
		s.log.Warn("spill: record failed validation; treating as a miss",
			"dir", s.cfg.Dir, "segment", ref.seg.path, "offset", ref.off, "error", err)
		return Flat{}, false
	}
	return f, true
}

// recordLen is the full appended length of a record: header + payload,
// padded to 8 bytes so every record (and its int32 payload) stays
// 8-byte aligned in the file.
func recordLen(f Flat) int64 {
	n := recHeaderSize + f.PayloadBytes()
	return (n + 7) &^ 7
}

// writeRecord serializes one record at off. The checksum covers the
// header fields from the key on plus both arrays, so header tampering
// and payload rot both surface at read time.
func writeRecord(w io.WriterAt, off int64, key uint64, f Flat, recLen int64) error {
	buf := make([]byte, recLen)
	binary.LittleEndian.PutUint32(buf[0:4], recMagic)
	binary.LittleEndian.PutUint64(buf[8:16], key)
	binary.LittleEndian.PutUint32(buf[16:20], uint32(f.NumRows))
	binary.LittleEndian.PutUint32(buf[20:24], uint32(len(f.Rows)))
	binary.LittleEndian.PutUint32(buf[24:28], uint32(len(f.Offsets)))
	binary.LittleEndian.PutUint32(buf[28:32], uint32(recLen))
	binary.LittleEndian.PutUint64(buf[32:40], uint64(f.Hsum))
	binary.LittleEndian.PutUint64(buf[40:48], math.Float64bits(f.Cost))
	encodeInt32s(buf[recHeaderSize:], f.Rows)
	encodeInt32s(buf[recHeaderSize+4*len(f.Rows):], f.Offsets)
	// The checksum stops before the alignment padding — the read side
	// never sees the pad bytes.
	crc := crc32.ChecksumIEEE(buf[8 : recHeaderSize+f.PayloadBytes()])
	binary.LittleEndian.PutUint32(buf[4:8], crc)
	_, err := w.WriteAt(buf, off)
	return err
}

// readRecord reads and fully validates one record: magic, key match,
// bounds, and the CRC over header fields + payload.
func readRecord(seg *segment, off int64, wantKey uint64) (Flat, error) {
	var hdr [recHeaderSize]byte
	if _, err := seg.f.ReadAt(hdr[:], off); err != nil {
		return Flat{}, fmt.Errorf("short header: %w", err)
	}
	key, numIDs, numOff, recLen, ok := parseRecHeader(hdr[:])
	if !ok {
		return Flat{}, errors.New("bad record header")
	}
	if key != wantKey {
		return Flat{}, fmt.Errorf("record key %#x, want %#x", key, wantKey)
	}
	if off+recLen > seg.size {
		return Flat{}, errors.New("record extends past the segment's valid bytes")
	}
	f := Flat{
		NumRows: int(binary.LittleEndian.Uint32(hdr[16:20])),
		Hsum:    int64(binary.LittleEndian.Uint64(hdr[32:40])),
		Cost:    math.Float64frombits(binary.LittleEndian.Uint64(hdr[40:48])),
	}
	payload := make([]byte, 4*(numIDs+numOff))
	if _, err := seg.f.ReadAt(payload, off+recHeaderSize); err != nil {
		return Flat{}, fmt.Errorf("short payload: %w", err)
	}
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[8:]), crc32.IEEETable, payload)
	if crc != binary.LittleEndian.Uint32(hdr[4:8]) {
		return Flat{}, errors.New("checksum mismatch")
	}
	f.Rows = decodeInt32s(payload[:4*numIDs])
	f.Offsets = decodeInt32s(payload[4*numIDs:])
	return f, nil
}

// Close syncs and closes every segment file; the next Open over the
// directory finds every record by scanning. Partitions already promoted
// own their arrays and stay valid. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for _, seg := range s.segs {
		if err := seg.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		seg.f.Close()
		seg.f = nil
	}
	return firstErr
}
