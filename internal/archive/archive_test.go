package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/blobstore"
)

// payload fabricates a deterministic raw block body.
func payload(num int64) []byte {
	return []byte(fmt.Sprintf(`{"block_num":%d,"body":"%032d"}`, num, num))
}

// writeArchive archives blocks [1, n] (in an interleaved order, like a
// stride-sharded crawl delivers) and closes the writer.
func writeArchive(t *testing.T, dir string, chain string, n int64, segBlocks int) {
	t.Helper()
	w, err := NewWriter(WriterConfig{Dir: dir, Chain: chain, SegmentBlocks: segBlocks})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave evens-descending then odds-descending: archives record
	// arrival order, not height order.
	for num := n; num >= 1; num -= 2 {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	for num := n - 1; num >= 1; num -= 2 {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir, "eos", 50, 7) // several rotations
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Chain() != "eos" {
		t.Fatalf("chain = %q", r.Chain())
	}
	if r.Blocks() != 50 || r.From() != 1 || r.To() != 50 {
		t.Fatalf("blocks=%d from=%d to=%d", r.Blocks(), r.From(), r.To())
	}
	if !r.Covers(1, 50) {
		t.Fatal("archive should cover [1,50]")
	}
	if r.Covers(1, 51) || r.Covers(0, 50) {
		t.Fatal("Covers accepted an uncovered range")
	}
	head, err := r.Head(context.Background())
	if err != nil || head != 50 {
		t.Fatalf("head = %d, %v", head, err)
	}
	for num := int64(1); num <= 50; num++ {
		raw, err := r.FetchBlock(context.Background(), num)
		if err != nil {
			t.Fatalf("fetch %d: %v", num, err)
		}
		if !bytes.Equal(raw, payload(num)) {
			t.Fatalf("block %d replayed wrong bytes: %s", num, raw)
		}
	}
	if _, err := r.FetchBlock(context.Background(), 51); err == nil {
		t.Fatal("fetching an unarchived block succeeded")
	}
}

// TestFetchBlockConcurrent exercises the segment cache under the same
// parallel access pattern stream workers produce.
func TestFetchBlockConcurrent(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir, "eos", 64, 5)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(offset int64) {
			defer wg.Done()
			for num := int64(64) - offset; num >= 1; num -= 8 {
				raw, err := r.FetchBlock(context.Background(), num)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(raw, payload(num)) {
					errs <- fmt.Errorf("block %d: wrong bytes", num)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWriterAppendsAcrossSessions: a resumed crawl reopens the archive and
// extends it; the union replays, and the chains must match.
func TestWriterAppendsAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	w1, err := NewWriter(WriterConfig{Dir: dir, Chain: "tezos", SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(10); num > 5; num-- {
		if err := w1.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := NewWriter(WriterConfig{Dir: dir, Chain: "tezos", SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(5); num >= 1; num-- {
		if err := w2.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Covers(1, 10) {
		t.Fatalf("union archive covers [%d,%d], blocks %d", r.From(), r.To(), r.Blocks())
	}

	if _, err := NewWriter(WriterConfig{Dir: dir, Chain: "xrp"}); err == nil {
		t.Fatal("writer accepted a chain mismatch against an existing manifest")
	}
}

// TestCompressedBytesMatchesManifest: Figure 2's compressed size is what
// the writer committed — the manifest's summed comp_bytes — on a real
// store, on null:// where nothing is kept, and across a resumed session,
// where reader (earlier segments) plus writer (new ones) is the union.
func TestCompressedBytesMatchesManifest(t *testing.T) {
	ctx := context.Background()
	mem := blobstore.NewMemory()
	w1, err := NewWriter(WriterConfig{Store: mem, Chain: "eos", SegmentBlocks: 7})
	if err != nil {
		t.Fatal(err)
	}
	var raw int64
	for num := int64(40); num > 20; num-- {
		raw += int64(len(payload(num)))
		if err := w1.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest(ctx, mem)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, seg := range m.Segments {
		sum += seg.CompBytes
	}
	if len(m.Segments) < 2 || w1.CompressedBytes() != sum {
		t.Fatalf("writer compressed %d bytes, manifest sums %d over %d segments", w1.CompressedBytes(), sum, len(m.Segments))
	}
	r1, err := OpenWith("", OpenOptions{Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := r1.CompressedBytes(); !ok || got != sum {
		t.Fatalf("reader compressed = %d (ok %v), want %d", got, ok, sum)
	}

	// The resumed session counts only what it finalized itself.
	w2, err := NewWriter(WriterConfig{Store: mem, Chain: "eos", SegmentBlocks: 7})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(20); num >= 1; num-- {
		if err := w2.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	union, err := OpenWith("", OpenOptions{Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := union.CompressedBytes(); !ok || got != sum+w2.CompressedBytes() || w2.CompressedBytes() <= 0 {
		t.Fatalf("union compressed = %d (ok %v), want %d + %d", got, ok, sum, w2.CompressedBytes())
	}

	null, err := NewWriter(WriterConfig{Dir: "null://", Chain: "eos", SegmentBlocks: 7})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(40); num > 20; num-- {
		if err := null.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := null.Close(); err != nil {
		t.Fatal(err)
	}
	if got := null.CompressedBytes(); got != sum || got <= 0 || got >= raw {
		t.Fatalf("null:// compressed %d bytes of %d raw, want %d", got, raw, sum)
	}
}

// TestDuplicateRecordsDedupe: a crawl cancelled between the tee and the
// stream delivery re-archives the block on resume; replay keeps the first
// copy and still counts it once.
func TestDuplicateRecordsDedupe(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos", SegmentBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, num := range []int64{5, 4, 3, 4, 2, 1, 4} {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks() != 5 {
		t.Fatalf("deduped block count = %d, want 5", r.Blocks())
	}
	if !r.Covers(1, 5) {
		t.Fatal("archive with duplicates should still cover [1,5]")
	}
	raw, err := r.FetchBlock(context.Background(), 4)
	if err != nil || !bytes.Equal(raw, payload(4)) {
		t.Fatalf("duplicated block replayed wrong: %s, %v", raw, err)
	}
}

// TestOpenMissingManifest: a directory that was never archived reports
// fs.ErrNotExist, not corruption.
func TestOpenMissingManifest(t *testing.T) {
	if _, err := Open(t.TempDir()); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing manifest: %v", err)
	}
}

// TestEmptyArchiveManifests: a crawl that archived nothing still writes a
// manifest, and replay reports the emptiness clearly.
func TestEmptyArchiveManifests(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks() != 0 || r.Covers(1, 1) {
		t.Fatal("empty archive claims coverage")
	}
	if _, err := r.Head(context.Background()); err == nil {
		t.Fatal("empty archive returned a head")
	}
}

// TestCrashMidSegmentLeavesNoTorn: abandoning a writer without Close (a
// crash, or SIGKILL racing a rotation) must leave the manifest pointing
// only at fully finalized segments — the open segment buffers in memory
// and simply evaporates, publishing nothing partial.
func TestCrashMidSegmentLeavesNoTorn(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos", SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 4 appends finalize segment 1 (atomic publish + manifest commit);
	// 2 more sit in the open segment's buffer when the "crash" lands.
	for num := int64(6); num >= 1; num-- {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the writer is simply abandoned.

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("archive after crash failed to open: %v", err)
	}
	if r.Blocks() != 4 {
		t.Fatalf("crashed archive replays %d blocks, want the 4 finalized ones", r.Blocks())
	}
	if !r.Covers(3, 6) || r.Covers(1, 6) {
		t.Fatalf("crashed archive coverage wrong: [%d,%d]", r.From(), r.To())
	}

	// The next session re-archives what was lost.
	w2, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos", SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(2); num >= 1; num-- {
		if err := w2.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Covers(1, 6) {
		t.Fatalf("recovered archive covers [%d,%d] with %d blocks", r2.From(), r2.To(), r2.Blocks())
	}
}

// TestFailedPutPoisonsWriter: when publishing a segment fails (disk full,
// endpoint outage), the writer must report the failure on that Append,
// refuse everything after it, and never manifest the lost segment — while
// the segments finalized before the failure stay replayable. (The lost
// blocks' crawl-side fate is handled by collect.ErrTee — the checkpoint is
// not saved, so a resume refetches them.)
func TestFailedPutPoisonsWriter(t *testing.T) {
	for _, backend := range []string{"file", "mem"} {
		t.Run(backend, func(t *testing.T) {
			var base blobstore.Store
			if backend == "file" {
				base = blobstore.NewFile(t.TempDir())
			} else {
				base = blobstore.NewMemory()
			}
			faulty := blobstore.NewFaulty(base)
			w, err := NewWriter(WriterConfig{Store: faulty, Chain: "eos", SegmentBlocks: 3})
			if err != nil {
				t.Fatal(err)
			}
			// Segment 1 ({6,5,4}) publishes cleanly: one segment put + one
			// manifest put. The next segment's put fails.
			boom := errors.New("endpoint on fire")
			faulty.BreakAfter(blobstore.OpPut, 2, -1, boom)
			for num := int64(6); num >= 2; num-- {
				if err := w.Append(num, payload(num)); err != nil {
					t.Fatal(err)
				}
			}
			// This append completes segment 2 ({3,2,1}) and triggers the
			// failing publish.
			if err := w.Append(1, payload(1)); !errors.Is(err, boom) {
				t.Fatalf("rotating append did not surface the put failure: %v", err)
			}
			if err := w.Append(7, payload(7)); err == nil {
				t.Fatal("append after a failed publish succeeded on a poisoned writer")
			}
			if err := w.Close(); !errors.Is(err, boom) {
				t.Fatalf("closing a poisoned writer: %v (want the original failure)", err)
			}

			faulty.Clear()
			r, err := OpenWith("", OpenOptions{Store: base})
			if err != nil {
				t.Fatalf("archive after a discarded poisoned segment failed to open: %v", err)
			}
			if !r.Covers(4, 6) {
				t.Fatalf("finalized pre-failure segment lost: covers [%d, %d]", r.From(), r.To())
			}
			if r.Covers(3, 3) || r.Covers(2, 2) || r.Covers(1, 1) {
				t.Fatal("poisoned segment's blocks leaked into the manifest")
			}
		})
	}
}

// corruptCase mutates a valid archive and says what Open must report.
func TestCorruptionFailsLoudly(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
	}{
		{"truncated segment", func(t *testing.T, dir string) {
			seg := firstSegment(t, dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped byte", func(t *testing.T, dir string) {
			seg := firstSegment(t, dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xff
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing segment", func(t *testing.T, dir string) {
			if err := os.Remove(firstSegment(t, dir)); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest block count mismatch", func(t *testing.T, dir string) {
			editManifest(t, dir, func(m *Manifest) { m.Segments[0].Blocks++ })
		}},
		{"manifest height range mismatch", func(t *testing.T, dir string) {
			editManifest(t, dir, func(m *Manifest) { m.Segments[0].Max++ })
		}},
		{"manifest raw byte mismatch", func(t *testing.T, dir string) {
			editManifest(t, dir, func(m *Manifest) { m.Segments[0].RawBytes-- })
		}},
		{"truncated gzip stream with recomputed checksum", func(t *testing.T, dir string) {
			// Defeats the checksum so the record walk itself must catch it.
			seg := firstSegment(t, dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			trunc := data[:len(data)-4]
			if err := os.WriteFile(seg, trunc, 0o644); err != nil {
				t.Fatal(err)
			}
			// Also fix up the size so the record walk itself is what trips.
			editManifest(t, dir, func(m *Manifest) {
				m.Segments[0].SHA256 = sha256Hex(trunc)
				m.Segments[0].CompBytes = int64(len(trunc))
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeArchive(t, dir, "eos", 20, 6)
			tc.corrupt(t, dir)
			_, err := Open(dir)
			if err == nil {
				t.Fatal("corrupted archive opened cleanly")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corruption not reported as ErrCorrupt: %v", err)
			}
		})
	}
}

func firstSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "segment-*.gz"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return segs[0]
}

func editManifest(t *testing.T, dir string, edit func(*Manifest)) {
	t.Helper()
	ctx := context.Background()
	st := blobstore.NewFile(dir)
	m, err := loadManifest(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	edit(&m)
	if err := saveManifest(ctx, st, m); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentRotationBySize: the byte bound rotates segments independently
// of the record-count bound.
func TestSegmentRotationBySize(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos", SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(6); num >= 1; num-- {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Segments() < 2 {
		t.Fatalf("size bound never rotated: %d segments", w.Segments())
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Covers(1, 6) {
		t.Fatal("size-rotated archive incomplete")
	}
}

// TestReplayDeliversEachBlockOnce: the parallel replay must visit every
// distinct block exactly once with the same bytes FetchBlock serves,
// duplicates (re-archived blocks) included, at every worker count.
func TestReplayDeliversEachBlockOnce(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos", SegmentBlocks: 5})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(40); num >= 1; num-- {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	// Re-archive a few blocks, as a resumed crawl does; the duplicates
	// land in later segments and must not be delivered.
	for _, num := range []int64{40, 17, 3} {
		if err := w.Append(num, append(payload(num), []byte("-stale")...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5, 16} {
		var mu sync.Mutex
		seen := make(map[int64]int)
		err := r.Replay(context.Background(), workers, func(worker int, num int64, raw []byte) error {
			if worker < 0 || worker >= workers {
				return fmt.Errorf("worker index %d out of range", worker)
			}
			if !bytes.Equal(raw, payload(num)) {
				return fmt.Errorf("block %d: replay delivered wrong bytes %q", num, raw)
			}
			mu.Lock()
			seen[num]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if int64(len(seen)) != r.Blocks() {
			t.Fatalf("workers=%d: visited %d blocks, want %d", workers, len(seen), r.Blocks())
		}
		for num, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: block %d visited %d times", workers, num, n)
			}
		}
	}
}

// TestReplayStopsOnVisitError: the first visit error surfaces and stops
// the fan-out promptly.
func TestReplayStopsOnVisitError(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir, "eos", 30, 4)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err = r.Replay(context.Background(), 3, func(worker int, num int64, raw []byte) error {
		if num == 13 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("visit error not surfaced: %v", err)
	}
}

// TestReplayCancelled: a cancelled context surfaces as its error.
func TestReplayCancelled(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir, "eos", 30, 4)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = r.Replay(ctx, 2, func(worker int, num int64, raw []byte) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay returned %v", err)
	}
}

// TestReplayDetectsPostOpenTamper: a segment modified after Open fails the
// replay walk's re-verification on a cache miss instead of feeding stale
// or corrupt bytes to visitors.
func TestReplayDetectsPostOpenTamper(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir, "eos", 60, 4) // 15 segments, far beyond the cache
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the Open-seeded cache so every segment takes the miss path.
	r.mu.Lock()
	r.cache = make(map[int][]byte)
	r.order = nil
	r.mu.Unlock()

	seg := firstSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = r.Replay(context.Background(), 2, func(worker int, num int64, raw []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered segment replayed without ErrCorrupt: %v", err)
	}
}

// TestOpenParallelMatchesSerial: any verification fan-out produces the
// same reader state — index size, bounds, duplicate resolution — as the
// serial walk.
func TestOpenParallelMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos", SegmentBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(25); num >= 1; num-- {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicates whose first-written copy must win under any fan-out.
	for _, num := range []int64{25, 9} {
		if err := w.Append(num, append(payload(num), []byte("-dup")...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	serial, err := OpenParallel(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 9} {
		par, err := OpenParallel(dir, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Blocks() != serial.Blocks() || par.From() != serial.From() || par.To() != serial.To() {
			t.Fatalf("workers=%d: blocks/from/to %d/%d/%d vs serial %d/%d/%d",
				workers, par.Blocks(), par.From(), par.To(), serial.Blocks(), serial.From(), serial.To())
		}
		for num, ref := range serial.index {
			if par.index[num] != ref {
				t.Fatalf("workers=%d: block %d indexed at %+v, serial at %+v", workers, num, par.index[num], ref)
			}
		}
	}
}
