package spill

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testFlat(seed int32, rows, clusters int) Flat {
	f := Flat{NumRows: rows, Hsum: int64(seed) * 3 << 40, Cost: float64(seed) * 7}
	for i := 0; i < rows; i++ {
		f.Rows = append(f.Rows, seed+int32(i))
	}
	for i := 0; i <= clusters; i++ {
		f.Offsets = append(f.Offsets, int32(i*rows/max(clusters, 1)))
	}
	return f
}

func flatEqual(a, b Flat) bool {
	if a.NumRows != b.NumRows || a.Hsum != b.Hsum || a.Cost != b.Cost ||
		len(a.Rows) != len(b.Rows) || len(a.Offsets) != len(b.Offsets) {
		return false
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			return false
		}
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			return false
		}
	}
	return true
}

func openTest(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = discardLogger()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, ShapeHash: 42})
	want := map[uint64]Flat{}
	for k := uint64(1); k <= 20; k++ {
		f := testFlat(int32(k*13), 50+int(k), int(k%7)+1)
		want[k] = f
		if err := s.Put(k, f); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	for k, w := range want {
		got, ok := s.Get(k)
		if !ok {
			t.Fatalf("Get(%d): miss", k)
		}
		if !flatEqual(got, w) {
			t.Fatalf("Get(%d): round-trip mismatch", k)
		}
	}
	if _, ok := s.Get(999); ok {
		t.Fatal("Get of an absent key claimed a hit")
	}
	if !s.Contains(7) || s.Contains(999) {
		t.Fatal("Contains disagrees with the index")
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, ok := s.Get(1); ok {
		t.Fatal("Get after Close must miss")
	}
}

// TestSpillReput verifies a re-demoted key overrides its older record.
func TestSpillReput(t *testing.T) {
	s := openTest(t, Config{Dir: t.TempDir(), ShapeHash: 1})
	old := testFlat(3, 10, 2)
	if err := s.Put(5, old); err != nil {
		t.Fatal(err)
	}
	fresh := testFlat(9, 30, 4)
	if err := s.Put(5, fresh); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(5)
	if !ok || !flatEqual(got, fresh) {
		t.Fatal("Get returned the stale record after a re-Put")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after re-Put, want 1", s.Len())
	}
}

// TestSpillWarmReopen closes a store cleanly and reopens it: the
// segment scan must restore every record, and the reopened (sealed)
// segments must serve identical bytes.
func TestSpillWarmReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, ShapeHash: 77})
	want := map[uint64]Flat{}
	for k := uint64(1); k <= 10; k++ {
		f := testFlat(int32(k), 40, 3)
		want[k] = f
		if err := s.Put(k, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, Config{Dir: dir, ShapeHash: 77})
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), len(want))
	}
	for k, w := range want {
		got, ok := s2.Get(k)
		if !ok || !flatEqual(got, w) {
			t.Fatalf("Get(%d) after warm reopen: mismatch (hit=%v)", k, ok)
		}
	}
}

// TestSpillCrashReopen reopens a directory whose store was never closed
// (simulated crash: nothing synced): the segment scan must rebuild the
// index from record headers.
func TestSpillCrashReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, ShapeHash: 5})
	defer s.Close()
	want := map[uint64]Flat{}
	for k := uint64(1); k <= 8; k++ {
		f := testFlat(int32(k*3), 25, 2)
		want[k] = f
		if err := s.Put(k, f); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openTest(t, Config{Dir: dir, ShapeHash: 5})
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Fatalf("scanned Len = %d, want %d", s2.Len(), len(want))
	}
	for k, w := range want {
		got, ok := s2.Get(k)
		if !ok || !flatEqual(got, w) {
			t.Fatalf("Get(%d) after crash reopen: mismatch (hit=%v)", k, ok)
		}
	}
}

// TestSpillCrashMidSpillTruncated cuts a segment mid-record (the shape a
// kill during Put leaves) and verifies the reopened store serves the
// valid prefix and treats the torn record as a miss — never an error.
func TestSpillCrashMidSpillTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, ShapeHash: 5})
	keep := testFlat(1, 30, 3)
	if err := s.Put(1, keep); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, testFlat(2, 40, 4)); err != nil {
		t.Fatal(err)
	}
	seg := s.segs[len(s.segs)-1]
	torn := s.index[2]
	s.Close()
	// Chop the file inside record 2's payload.
	if err := os.Truncate(seg.path, torn.off+recHeaderSize+4); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, Config{Dir: dir, ShapeHash: 5})
	defer s2.Close()
	if got, ok := s2.Get(1); !ok || !flatEqual(got, keep) {
		t.Fatal("record before the torn tail must still be served")
	}
	if _, ok := s2.Get(2); ok {
		t.Fatal("the torn record must be a miss")
	}
}

// TestSpillCorruptPayloadIsMiss flips a payload byte in place: the CRC
// check at Get must reject the record and unindex it.
func TestSpillCorruptPayloadIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, ShapeHash: 5})
	if err := s.Put(1, testFlat(1, 30, 3)); err != nil {
		t.Fatal(err)
	}
	seg := s.segs[len(s.segs)-1]
	ref := s.index[1]
	f, err := os.OpenFile(seg.path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, ref.off+recHeaderSize+2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, ok := s.Get(1); ok {
		t.Fatal("corrupted payload must fail the checksum and miss")
	}
	if s.Contains(1) {
		t.Fatal("a failed record must be unindexed")
	}
	s.Close()
}

// TestSpillShapeMismatchDiscards reopens a directory under a different
// shape hash: the store must discard the stale segments and start empty
// instead of erroring or serving foreign partitions.
func TestSpillShapeMismatchDiscards(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, ShapeHash: 100})
	if err := s.Put(1, testFlat(1, 20, 2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTest(t, Config{Dir: dir, ShapeHash: 200})
	defer s2.Close()
	if s2.Len() != 0 {
		t.Fatalf("mismatched store must start empty, Len = %d", s2.Len())
	}
	if _, ok := s2.Get(1); ok {
		t.Fatal("a foreign-shape record must never be served")
	}
	segs, err := s2.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("mismatched segments must be deleted, %d remain", len(segs))
	}
	// The new shape writes fresh segments into the same directory.
	if err := s2.Put(9, testFlat(9, 15, 2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(9); !ok {
		t.Fatal("fresh Put after a discard must be served")
	}
}

// warnCounter is a slog.Handler that counts records at Warn and above.
type warnCounter struct{ warns *int }

func (h warnCounter) Enabled(context.Context, slog.Level) bool { return true }
func (h warnCounter) Handle(_ context.Context, r slog.Record) error {
	if r.Level >= slog.LevelWarn {
		*h.warns++
	}
	return nil
}
func (h warnCounter) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h warnCounter) WithGroup(string) slog.Handler      { return h }

// TestSpillEarlierFormatOpensCold hand-writes a directory as a format
// version 1 build left it — two segments whose records carry a float64
// where version 2 reads the integer sum. Open must not serve a byte of
// it: the store starts empty, the files are gone, exactly one warning is
// logged, and the directory is rebuilt at the current version.
func TestSpillEarlierFormatOpensCold(t *testing.T) {
	dir := t.TempDir()
	const shape = 0xfeed
	for seq := int64(1); seq <= 2; seq++ {
		rec := testFlat(int32(seq), 20, 2)
		rec.Hsum = int64(math.Float64bits(86.43856189774725)) // 20·log2 20, as version 1 stored it
		buf := make([]byte, fileHeaderSize+recordLen(rec))
		copy(buf[0:8], fileMagic)
		binary.LittleEndian.PutUint32(buf[8:12], 1)
		binary.LittleEndian.PutUint64(buf[16:24], shape)
		path := filepath.Join(dir, fmt.Sprintf("spill-%08d.seg", seq))
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeRecord(f, fileHeaderSize, uint64(seq), rec, recordLen(rec)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	warns := 0
	s := openTest(t, Config{Dir: dir, ShapeHash: shape, Logger: slog.New(warnCounter{&warns})})
	defer s.Close()
	if warns != 1 {
		t.Errorf("opening a version-1 directory logged %d warnings, want exactly 1", warns)
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("version-1 directory must open cold: Len %d, Bytes %d", s.Len(), s.Bytes())
	}
	for k := uint64(1); k <= 2; k++ {
		if _, ok := s.Get(k); ok {
			t.Fatalf("record %d of a version-1 segment was served", k)
		}
	}
	if segs, err := s.listSegments(); err != nil || len(segs) != 0 {
		t.Fatalf("version-1 segments must be deleted, %d remain (err %v)", len(segs), err)
	}
	want := testFlat(5, 30, 3)
	if err := s.Put(5, want); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(5); !ok || !flatEqual(got, want) {
		t.Fatal("a Put after the cold open must be served back intact")
	}
	hdr, err := os.ReadFile(s.segPath(1))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != formatVersion {
		t.Fatalf("rebuilt segment stamped version %d, want %d", v, formatVersion)
	}
}

// TestSpillBudgetEvictsOldest drives many Puts through a tiny byte
// budget: segments must rotate and the oldest be deleted, keeping the
// footprint bounded while the newest records stay readable.
func TestSpillBudgetEvictsOldest(t *testing.T) {
	budget := int64(256 << 10)
	s := openTest(t, Config{Dir: t.TempDir(), ShapeHash: 3, MaxBytes: budget})
	last := uint64(0)
	for k := uint64(1); k <= 400; k++ {
		if err := s.Put(k, testFlat(int32(k), 500, 16)); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
		last = k
	}
	defer s.Close()
	if got := s.Bytes(); got > budget {
		t.Fatalf("footprint %d exceeds the %d budget", got, budget)
	}
	if s.Len() >= 400 {
		t.Fatal("budget eviction dropped nothing")
	}
	if _, ok := s.Get(last); !ok {
		t.Fatal("the newest record must survive budget eviction")
	}
	if _, ok := s.Get(1); ok {
		t.Fatal("the oldest record should have been evicted")
	}
	// A single record larger than the whole budget is rejected, not
	// written-then-evicted.
	if err := s.Put(9999, testFlat(1, 200000, 8)); err == nil {
		t.Fatal("an over-budget record must be rejected")
	}
}

// TestSpillRotationKeepsAllReadable seals several segments (no budget)
// and checks records from sealed and active segments alike are served.
func TestSpillRotationKeepsAllReadable(t *testing.T) {
	s := openTest(t, Config{Dir: t.TempDir(), ShapeHash: 3, SegmentBytes: minSegmentBytes})
	want := map[uint64]Flat{}
	for k := uint64(1); k <= 120; k++ {
		f := testFlat(int32(k), 300, 10)
		want[k] = f
		if err := s.Put(k, f); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()
	if len(s.segs) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", len(s.segs))
	}
	for k, w := range want {
		got, ok := s.Get(k)
		if !ok || !flatEqual(got, w) {
			t.Fatalf("Get(%d) across rotation: mismatch (hit=%v)", k, ok)
		}
	}
}

// TestSpillLegacyIndexSnapshotRemoved opens a directory an earlier build
// closed cleanly, leaving an index.json snapshot beside its segments:
// Open must delete the snapshot unread and still find every record by
// scanning.
func TestSpillLegacyIndexSnapshotRemoved(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, ShapeHash: 9})
	want := map[uint64]Flat{}
	for k := uint64(1); k <= 6; k++ {
		want[k] = testFlat(int32(k), 35, 3)
		if err := s.Put(k, want[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A stale snapshot that indexes nothing: trusting it would open cold.
	snap := filepath.Join(dir, legacyIndexName)
	if err := os.WriteFile(snap, []byte(`{"version":2,"shape":"0000000000000009","entries":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, Config{Dir: dir, ShapeHash: 9})
	defer s2.Close()
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatalf("Open left the earlier build's %s in place (stat: %v)", legacyIndexName, err)
	}
	if s2.Len() != len(want) {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), len(want))
	}
	for k, w := range want {
		if got, ok := s2.Get(k); !ok || !flatEqual(got, w) {
			t.Fatalf("Get(%d) beside a legacy snapshot: mismatch (hit=%v)", k, ok)
		}
	}
}

// TestSpillBudgetBoundsLargeAppend fills the active segment to just under
// its rotation threshold, then Puts one record that fits the budget on
// its own but not beside that segment. The store must start a fresh
// segment for it and evict the old one, so neither Bytes nor the files on
// disk ever rest above MaxBytes.
func TestSpillBudgetBoundsLargeAppend(t *testing.T) {
	const budget = 1 << 20
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, ShapeHash: 4, MaxBytes: budget})
	defer s.Close()
	small := testFlat(1, 1000, 9)
	for k := uint64(1); fileHeaderSize+int64(k)*recordLen(small) < s.segMax; k++ {
		if err := s.Put(k, small); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.segs) != 1 || !s.segs[0].writable {
		t.Fatalf("setup: want one active segment below the rotation threshold, have %d", len(s.segs))
	}
	big := testFlat(2, 240000, 1)
	if fileHeaderSize+recordLen(big) > budget {
		t.Fatal("setup: the large record must fit the budget on its own")
	}
	if err := s.Put(1<<40, big); err != nil {
		t.Fatal(err)
	}
	if got := s.Bytes(); got > budget {
		t.Fatalf("Bytes = %d after the large Put, above the %d budget", got, budget)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if onDisk > budget {
		t.Fatalf("%d bytes of spill files on disk, above the %d budget", onDisk, budget)
	}
	if got, ok := s.Get(1 << 40); !ok || !flatEqual(got, big) {
		t.Fatal("the large record must be served back intact")
	}
}

// TestSpillCloseLeavesNoMappings rotates and evicts under a tight budget,
// then closes: no memory mapping of any file under the spill directory
// may outlive the store, deleted segments included.
func TestSpillCloseLeavesNoMappings(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, ShapeHash: 3, MaxBytes: 256 << 10})
	for k := uint64(1); k <= 400; k++ {
		if err := s.Put(k, testFlat(int32(k), 500, 16)); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
		if k%50 == 0 {
			s.Get(k) // serve from a sealed segment too
			s.Get(k - 40)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("cannot read the process's memory mappings: %v", err)
	}
	n := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, dir) {
			n++
		}
	}
	if n != 0 {
		t.Fatalf("%d mappings under %s outlive the closed store", n, dir)
	}
}
