package serve

import (
	"context"
	"time"

	"repro/internal/archive"
	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/core"
)

// FeedConfig parameterizes one chain's ingest feed into a publisher. Both
// feed shapes (live crawl and archive replay) ingest with periodic shard
// merges (Ingest.MergeEvery, core.SnapshotMergeEvery unless set), so each
// worker's private shard folds into the shared aggregator every few
// batches — mid-crawl snapshots see the stream in epoch-sized increments
// instead of only at drain.
type FeedConfig struct {
	// Chain names the feed ("eos", "tezos", "xrp") and keys its snapshot
	// entry. For archive feeds, zero means the archive manifest's chain.
	Chain string
	// Origin and Bucket anchor the throughput series; zero selects the
	// paper's observation window (chain.ObservationStart, 6h buckets) —
	// the same anchoring cmd/crawl and cmd/report use, which keeps a
	// drained feed's figures byte-comparable with theirs.
	Origin time.Time
	Bucket time.Duration
	// Ingest sizes the decode/ingest pool.
	Ingest core.IngestConfig
}

func (c FeedConfig) withDefaults() FeedConfig {
	if c.Origin.IsZero() {
		c.Origin = chain.ObservationStart
	}
	if c.Bucket <= 0 {
		c.Bucket = 6 * time.Hour
	}
	if c.Ingest.MergeEvery <= 0 {
		c.Ingest.MergeEvery = core.SnapshotMergeEvery
	}
	return c
}

// Feed crawls a live endpoint into the publisher: it registers cfg.Chain,
// streams blocks through the periodic-merge ingest path, and marks the
// chain drained when the crawl returns (the stream is fully folded in by
// then — IngestCrawl drains before returning, even on cancellation).
func (p *Publisher) Feed(ctx context.Context, f collect.BlockFetcher, ccfg collect.CrawlConfig, cfg FeedConfig) (collect.CrawlResult, error) {
	cfg = cfg.withDefaults()
	kit, err := core.NewStatsKit(cfg.Chain, cfg.Origin, cfg.Bucket)
	if err != nil {
		return collect.CrawlResult{}, err
	}
	release, err := p.Register(cfg.Chain, core.Window{Origin: cfg.Origin, Bucket: cfg.Bucket}, kit.Summarize)
	if err != nil {
		return collect.CrawlResult{}, err
	}
	defer release()
	res, _, err := core.IngestCrawl(ctx, f, ccfg, kit.Decoder, cfg.Ingest)
	return res, err
}

// FeedArchive replays an opened archive into the publisher: same
// registration and periodic-merge path as Feed, fed by the segment-parallel
// archive walker instead of the network. It returns the number of blocks
// ingested.
func (p *Publisher) FeedArchive(ctx context.Context, rd *archive.Reader, cfg FeedConfig) (int64, error) {
	cfg = cfg.withDefaults()
	if cfg.Chain == "" {
		cfg.Chain = rd.Chain()
	}
	kit, err := core.NewStatsKit(cfg.Chain, cfg.Origin, cfg.Bucket)
	if err != nil {
		return 0, err
	}
	release, err := p.Register(cfg.Chain, core.Window{Origin: cfg.Origin, Bucket: cfg.Bucket}, kit.Summarize)
	if err != nil {
		return 0, err
	}
	defer release()
	return core.IngestArchive(ctx, rd, kit.Decoder, cfg.Ingest)
}
