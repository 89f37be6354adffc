package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/chain"
	"repro/internal/collect"
)

// writeRawArchive archives pre-marshaled blocks [1, len(raws)] in reverse
// order (arrival order of a reverse-chronological crawl).
func writeRawArchive(t testing.TB, dir string, chainName string, raws [][]byte) *archive.Reader {
	t.Helper()
	w, err := archive.NewWriter(archive.WriterConfig{Dir: dir, Chain: chainName, SegmentBlocks: 48})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(len(raws)); num >= 1; num-- {
		if err := w.Append(num, raws[num-1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// TestIngestArchiveMatchesStreamIngest: the segment-walk replay must
// produce byte-identical figures to the stream-fetch replay (and hence to
// the live crawl), at every worker count.
func TestIngestArchiveMatchesStreamIngest(t *testing.T) {
	raws := makeEOSRawBlocks(t, 96, 4)
	rd := writeRawArchive(t, t.TempDir(), "eos", raws)

	streamAgg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	res, _, err := IngestCrawl(context.Background(), rd, collect.CrawlConfig{
		From: rd.From(), To: rd.To(), Workers: 3,
	}, streamAgg.Decoder(), IngestConfig{Workers: 2, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != int64(len(raws)) {
		t.Fatalf("stream replay fetched %d blocks, want %d", res.Blocks, len(raws))
	}
	want := SummarizeEOS(streamAgg).Render()

	for _, workers := range []int{1, 2, 4, 7} {
		agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
		n, err := IngestArchive(context.Background(), rd, agg.Decoder(), IngestConfig{Workers: workers, Batch: 8})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != int64(len(raws)) {
			t.Fatalf("workers=%d: ingested %d blocks, want %d", workers, n, len(raws))
		}
		if got := SummarizeEOS(agg).Render(); got != want {
			t.Fatalf("workers=%d: segment-walk render diverged\n--- stream ---\n%s\n--- walk ---\n%s", workers, want, got)
		}
	}
}

// TestIngestArchiveDecodeError: a payload the decoder rejects surfaces as
// the replay error, with the blocks ingested before it still counted.
func TestIngestArchiveDecodeError(t *testing.T) {
	raws := makeEOSRawBlocks(t, 12, 1)
	raws[7] = []byte(`{broken`)
	rd := writeRawArchive(t, t.TempDir(), "eos", raws)
	agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	n, err := IngestArchive(context.Background(), rd, agg.Decoder(), IngestConfig{Workers: 2})
	if err == nil {
		t.Fatal("corrupt payload replayed without error")
	}
	if n >= int64(len(raws)) {
		t.Fatalf("ingested %d blocks despite a corrupt one", n)
	}
}

// BenchmarkParallelReplay pits the two archive→aggregate paths against
// each other over the same archived EOS history: "stream-fetch" drives
// collect.Stream over Reader.FetchBlock (per-block copy + channel hop into
// the decode pool), "segment-walk" decodes records where they lie via
// IngestArchive. Sub-benchmarks vary the walk's worker count; on a
// multi-core runner the fan-out is the speedup the tentpole claims, on a
// single-CPU container the walk still wins by skipping the copies.
func BenchmarkParallelReplay(b *testing.B) {
	raws := makeEOSRawBlocks(b, 256, 8)
	var bytes int64
	for _, r := range raws {
		bytes += int64(len(r))
	}
	rd := writeRawArchive(b, b.TempDir(), "eos", raws)
	ctx := context.Background()

	b.Run("stream-fetch", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
			res, _, err := IngestCrawl(ctx, rd, collect.CrawlConfig{
				From: rd.From(), To: rd.To(), Workers: 4, MaxRetries: 1,
			}, agg.Decoder(), IngestConfig{Workers: 2, Batch: 32})
			if err != nil || res.Blocks != int64(len(raws)) {
				b.Fatalf("stream replay: %+v %v", res, err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("segment-walk-%dw", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
				n, err := IngestArchive(ctx, rd, agg.Decoder(), IngestConfig{Workers: workers, Batch: 32})
				if err != nil || n != int64(len(raws)) {
					b.Fatalf("segment walk: %d %v", n, err)
				}
			}
		})
	}
}
