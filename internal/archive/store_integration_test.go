package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/blobstore/s3stub"
)

// ascendingArchive archives blocks [1, n] in height order so segment
// ranges tile cleanly ([1,segBlocks], [segBlocks+1, 2*segBlocks], …).
func ascendingArchive(t *testing.T, location string, st blobstore.Store, n int64, segBlocks int) {
	t.Helper()
	w, err := NewWriter(WriterConfig{Dir: location, Store: st, Chain: "eos", SegmentBlocks: segBlocks})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(1); num <= n; num++ {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRangeFetchesOnlyCoveringSegments is the range index's proof: a
// sub-range open against the counted memory backend must fetch the
// manifest plus exactly the segments whose [min, max] covers the range —
// never the rest of the archive.
func TestOpenRangeFetchesOnlyCoveringSegments(t *testing.T) {
	// A fresh store per run: a named one would still hold the previous
	// run's archive under -count=2.
	mem := blobstore.NewMemory()
	url := mem.URL()
	ascendingArchive(t, url, nil, 64, 8) // 8 segments: [1,8], [9,16], …, [57,64]

	// [17, 24] sits inside exactly one segment.
	mem.ResetOps()
	r, err := OpenRange(url, 17, 24)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.Ops(blobstore.OpGet); got != 2 {
		t.Fatalf("ranged open issued %d gets, want 2 (manifest + 1 covering segment)", got)
	}
	if r.Segments() != 1 || r.Blocks() != 8 || r.From() != 17 || r.To() != 24 {
		t.Fatalf("ranged reader: segments=%d blocks=%d range=[%d,%d]", r.Segments(), r.Blocks(), r.From(), r.To())
	}
	if !r.Covers(17, 24) || r.Covers(16, 17) || r.Covers(24, 25) {
		t.Fatal("ranged coverage wrong")
	}
	if _, err := r.FetchBlock(context.Background(), 30); err == nil {
		t.Fatal("fetched a block outside the open range")
	}

	// Replay delivers exactly the in-range blocks, from the cache Open
	// seeded — zero further fetches.
	var mu sync.Mutex
	seen := make(map[int64]bool)
	err = r.Replay(context.Background(), 4, func(worker int, num int64, raw []byte) error {
		if !bytes.Equal(raw, payload(num)) {
			return fmt.Errorf("block %d: wrong bytes", num)
		}
		mu.Lock()
		seen[num] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 8 {
		t.Fatalf("range replay visited %d blocks, want 8", len(seen))
	}
	for num := int64(17); num <= 24; num++ {
		if !seen[num] {
			t.Fatalf("range replay missed block %d", num)
		}
	}
	if got := mem.Ops(blobstore.OpGet); got != 2 {
		t.Fatalf("replay re-fetched: %d total gets, want still 2", got)
	}

	// [7, 10] straddles a segment boundary: exactly two covering segments.
	mem.ResetOps()
	r2, err := OpenRange(url, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.Ops(blobstore.OpGet); got != 3 {
		t.Fatalf("boundary-straddling open issued %d gets, want 3 (manifest + 2 segments)", got)
	}
	if r2.Segments() != 2 || r2.Blocks() != 4 {
		t.Fatalf("straddling reader: segments=%d blocks=%d", r2.Segments(), r2.Blocks())
	}

	// Degenerate ranges are rejected up front.
	for _, bad := range [][2]int64{{0, 5}, {5, 4}, {-1, 3}} {
		if _, err := OpenRange(url, bad[0], bad[1]); err == nil {
			t.Errorf("OpenRange(%d, %d) succeeded", bad[0], bad[1])
		}
	}
}

// TestV1ManifestBackCompat: archives written before the manifest gained
// comp_bytes (PR 3–6) must keep opening, range-opening and replaying —
// min/max were always present, so the range index works retroactively.
func TestV1ManifestBackCompat(t *testing.T) {
	dir := t.TempDir()
	ascendingArchive(t, dir, nil, 20, 5)
	// Rewrite the manifest exactly as the old writer laid it down: version
	// 1, no comp_bytes.
	editManifest(t, dir, func(m *Manifest) {
		m.Version = 1
		for i := range m.Segments {
			m.Segments[i].CompBytes = 0
		}
	})

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("v1 manifest failed to open: %v", err)
	}
	if r.Blocks() != 20 || !r.Covers(1, 20) {
		t.Fatalf("v1 archive coverage: blocks=%d [%d,%d]", r.Blocks(), r.From(), r.To())
	}
	if n, ok := r.CompressedBytes(); ok {
		t.Fatalf("v1 archive reported compressed size %d; it has none", n)
	}
	rr, err := OpenRange(dir, 6, 10)
	if err != nil {
		t.Fatalf("v1 manifest failed to range-open: %v", err)
	}
	if rr.Segments() != 1 || rr.Blocks() != 5 {
		t.Fatalf("v1 ranged open: segments=%d blocks=%d", rr.Segments(), rr.Blocks())
	}

	// A writer extending a v1 archive upgrades the manifest to v2.
	w, err := NewWriter(WriterConfig{Dir: dir, Chain: "eos", SegmentBlocks: 5})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(21); num <= 25; num++ {
		if err := w.Append(num, payload(num)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest(context.Background(), blobstore.NewFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != manifestVersion {
		t.Fatalf("extended manifest version = %d, want %d", m.Version, manifestVersion)
	}
	if last := m.Segments[len(m.Segments)-1]; last.CompBytes <= 0 {
		t.Fatalf("new segment lacks comp_bytes: %+v", last)
	}
	r3, err := Open(dir)
	if err != nil || !r3.Covers(1, 25) {
		t.Fatalf("upgraded archive: %v", err)
	}
	// The compressed size stays unknown while any v1 segment is read —
	// never a partial sum — and is known for the v2 segments alone.
	if n, ok := r3.CompressedBytes(); ok {
		t.Fatalf("mixed v1/v2 archive reported compressed size %d", n)
	}
	r4, err := OpenRange(dir, 21, 25)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := r4.CompressedBytes(); !ok || n != w.CompressedBytes() {
		t.Fatalf("v2 segment compressed = %d (ok %v), want %d", n, ok, w.CompressedBytes())
	}
}

// TestCrossBackendIdenticalSegments: the same append sequence archived to
// file, memory and the S3 stub must produce byte-identical segment
// objects (same SHA-256 chain in the manifest) and replay the same
// payloads — the archive format is backend-invariant.
func TestCrossBackendIdenticalSegments(t *testing.T) {
	stub := s3stub.New()
	defer stub.Close()
	locations := map[string]string{
		"file": t.TempDir(),
		"mem":  blobstore.NewMemory().URL(), // fresh per run, unlike a named store
		"s3":   stub.URL("bkt", "cross"),
	}
	manifests := make(map[string]Manifest)
	replays := make(map[string]map[int64]string)
	for name, loc := range locations {
		ascendingArchive(t, loc, nil, 30, 7)
		st, err := blobstore.Resolve(loc)
		if err != nil {
			t.Fatal(err)
		}
		m, err := loadManifest(context.Background(), st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		manifests[name] = m

		r, err := Open(loc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var mu sync.Mutex
		got := make(map[int64]string)
		err = r.Replay(context.Background(), 3, func(worker int, num int64, raw []byte) error {
			mu.Lock()
			got[num] = string(raw)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("%s replay: %v", name, err)
		}
		replays[name] = got
	}
	ref := manifests["file"]
	for name, m := range manifests {
		if len(m.Segments) != len(ref.Segments) {
			t.Fatalf("%s: %d segments, file has %d", name, len(m.Segments), len(ref.Segments))
		}
		for i := range m.Segments {
			if m.Segments[i].SHA256 != ref.Segments[i].SHA256 || m.Segments[i].CompBytes != ref.Segments[i].CompBytes {
				t.Errorf("%s segment %d differs from file backend: %+v vs %+v", name, i, m.Segments[i], ref.Segments[i])
			}
		}
	}
	for name, got := range replays {
		if len(got) != 30 {
			t.Fatalf("%s replayed %d blocks", name, len(got))
		}
		for num, raw := range replays["file"] {
			if got[num] != raw {
				t.Errorf("%s block %d replayed different bytes", name, num)
			}
		}
	}
}

// TestReaderFaultsPerBackend: under injected faults on any backend, a
// transient store failure propagates as itself (never dressed up as
// corruption), while a genuinely missing segment is ErrCorrupt.
func TestReaderFaultsPerBackend(t *testing.T) {
	stub := s3stub.New()
	defer stub.Close()
	builders := map[string]func(t *testing.T) blobstore.Store{
		"file": func(t *testing.T) blobstore.Store { return blobstore.NewFile(t.TempDir()) },
		"mem":  func(t *testing.T) blobstore.Store { return blobstore.NewMemory() },
		"s3": func(t *testing.T) blobstore.Store {
			st, err := blobstore.Resolve(stub.URL("bkt", "faults-"+t.Name()))
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			base := build(t)
			ascendingArchive(t, base.URL(), base, 20, 5)

			// Transient fetch failure during open: the error is the
			// injected one, not ErrCorrupt.
			boom := errors.New("transient backend failure")
			faulty := blobstore.NewFaulty(base)
			faulty.BreakAfter(blobstore.OpGet, 1, -1, boom) // manifest loads, segments fail
			_, err := OpenWith(base.URL(), OpenOptions{Store: faulty, Workers: 1})
			if !errors.Is(err, boom) {
				t.Fatalf("injected fault surfaced as %v", err)
			}
			if errors.Is(err, ErrCorrupt) {
				t.Fatal("transient store failure misreported as corruption")
			}

			// Replay-time transient failure: open cleanly, then fail every
			// later fetch; the replay error is the fault, not corruption.
			faulty.Clear()
			r, err := OpenWith(base.URL(), OpenOptions{Store: faulty})
			if err != nil {
				t.Fatal(err)
			}
			r.mu.Lock()
			r.cache = make(map[int][]byte) // force every segment down the fetch path
			r.order = nil
			r.mu.Unlock()
			faulty.Break(blobstore.OpGet, boom)
			err = r.Replay(context.Background(), 2, func(worker int, num int64, raw []byte) error { return nil })
			if !errors.Is(err, boom) || errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay under faults: %v", err)
			}
			faulty.Clear()

			// A missing segment is corruption.
			if err := base.Delete(context.Background(), segmentName(1)); err != nil {
				t.Fatal(err)
			}
			_, err = OpenWith(base.URL(), OpenOptions{Store: base})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("missing segment: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestDiscoverPropagatesStatErrors: a store failure while probing for a
// manifest must surface, not silently degrade into "no archives" (the old
// os.Stat path swallowed every error class).
func TestDiscoverPropagatesStatErrors(t *testing.T) {
	boom := errors.New("auth expired")
	faulty := blobstore.NewFaulty(blobstore.NewMemory())
	faulty.Break(blobstore.OpStat, boom)
	_, err := discoverIn(faulty, "mem://faulty-discover")
	if !errors.Is(err, boom) {
		t.Fatalf("stat failure swallowed: %v", err)
	}

	// Same for the listing pass.
	faulty.Clear()
	faulty.Break(blobstore.OpList, boom)
	_, err = discoverIn(faulty, "mem://faulty-discover")
	if !errors.Is(err, boom) {
		t.Fatalf("list failure swallowed: %v", err)
	}
}

// TestDiscoverOverStoreURLs: discovery works on blob-store URLs, finds
// per-chain sub-archives, and names the supported schemes when nothing is
// found.
func TestDiscoverOverStoreURLs(t *testing.T) {
	base := "mem://disc-url"
	for _, chain := range []string{"tezos", "eos"} {
		ascendingArchive(t, blobstore.Join(base, chain), nil, 5, 5)
	}
	got, err := Discover(base)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"mem://disc-url/eos", "mem://disc-url/tezos"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Discover = %v, want %v", got, want)
	}
	for _, loc := range got {
		if _, err := Open(loc); err != nil {
			t.Fatalf("discovered archive %s failed to open: %v", loc, err)
		}
	}

	_, err = Discover("mem://disc-empty")
	if err == nil {
		t.Fatal("empty store discovered archives")
	}
	for _, fragment := range []string{"no archives", "s3://BUCKET", "mem://NAME"} {
		if !containsStr(err.Error(), fragment) {
			t.Errorf("no-archives error %q lacks %q", err, fragment)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && bytes.Contains([]byte(s), []byte(sub))
}
