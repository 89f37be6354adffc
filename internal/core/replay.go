package core

import (
	"context"
	"runtime"

	"repro/internal/archive"
)

// IngestArchive replays an archived crawl straight into the decoder: the
// archive's segments fan out across cfg.Workers goroutines (0 means one
// per CPU — replay is CPU-bound, unlike a live crawl), each decoding its
// segment's records in place through the same per-worker loop as
// IngestStream (see ingestWorker). d must be a ShardedDecoder. With
// cfg.MergeEvery 0 the shards merge in worker order after the walk, so the
// whole replay takes exactly cfg.Workers aggregator lock acquisitions.
//
// Compared with driving collect.Stream over the Reader's FetchBlock, this
// path skips the per-block copy, the channel hop and the segment-cache
// contention: raw payloads alias the decompressed segment and are decoded
// where they lie (the wire codecs copy every string they keep). The
// resulting aggregate is identical either way — and identical to the live
// crawl's — because every aggregate is order-independent.
//
// It returns the number of blocks ingested and the first
// decode/ingest/corruption error.
func IngestArchive(ctx context.Context, rd *archive.Reader, d Decoder, cfg IngestConfig) (int64, error) {
	pool, err := newIngestPool(d, cfg.withDefaults(runtime.GOMAXPROCS(0)))
	if err != nil {
		return 0, err
	}
	err = rd.Replay(ctx, len(pool), func(w int, num int64, raw []byte) error {
		return pool[w].add(num, raw)
	})
	return pool.drain(err)
}
