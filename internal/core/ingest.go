package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/collect"
	"repro/internal/wire"
)

// Ingestor consumes raw crawled payloads chain-agnostically: one method,
// whatever the chain.
type Ingestor interface {
	IngestRaw(num int64, raw []byte) error
}

// Decoder splits ingestion into its two costs so they can be scheduled
// separately: Decode is the CPU-bound, lock-free parse of one wire payload,
// and IngestBatch folds a batch of decoded blocks into the aggregator under
// a single lock acquisition. Each aggregator's Decoder method returns one;
// Decode must be safe for concurrent use.
type Decoder interface {
	Decode(num int64, raw []byte) (any, error)
	IngestBatch(batch []any) error
}

// Shard is one ingest worker's private, lock-free accumulator. IngestBatch
// folds decoded blocks in without any synchronization — exactly one
// goroutine owns a Shard between NewShard and Merge — and Merge folds the
// shard into its parent aggregator (one lock acquisition) and resets it.
// Because every aggregate the shards keep is order-independent, any
// partition of blocks across any number of shards merges to the same
// result (see DESIGN.md "sharded aggregation & merge semantics").
type Shard interface {
	IngestBatch(batch []any) error
	Merge()
}

// ShardedDecoder is implemented by Decoders whose aggregator can hand out
// mergeable shards — all three chains' decoders, and the only kind
// IngestStream and IngestArchive accept. Each worker folds into its own
// shard, keeping the aggregator lock off the hot path: the only lock
// acquisitions left are the per-worker merges.
type ShardedDecoder interface {
	Decoder
	NewShard() Shard
}

// BatchReleaser is implemented by Decoders whose decoded values come from
// a reusable arena (wire.GetEOSBlock and friends). After IngestBatch has
// folded a batch in, the ingest pool hands the values back through
// ReleaseBatch; the aggregators retain only strings (immutable, safe
// forever), never the structs, slices or maps themselves — the contract
// that makes the steady-state ingest path allocation-free.
type BatchReleaser interface {
	ReleaseBatch(batch []any)
}

// NewIngestor adapts a Decoder into an Ingestor that decodes and applies
// each payload immediately (batch of one). Use IngestStream instead when a
// block stream is available — it batches.
func NewIngestor(d Decoder) Ingestor { return decoderIngestor{d} }

type decoderIngestor struct{ d Decoder }

func (i decoderIngestor) IngestRaw(num int64, raw []byte) error {
	blk, err := i.d.Decode(num, raw)
	if err != nil {
		return err
	}
	batch := [1]any{blk}
	if err := i.d.IngestBatch(batch[:]); err != nil {
		return err
	}
	if r, ok := i.d.(BatchReleaser); ok {
		r.ReleaseBatch(batch[:])
	}
	return nil
}

// chainAggregator is what the ingest pool needs from a chain's
// aggregator: a locked batch fold, fresh per-worker shard states and the
// merge of a drained state back in.
type chainAggregator interface {
	IngestBatch(batch []any) error
	NewState() ShardState
	MergeState(ShardState) error
}

// chainDecoder is the one Decoder: it drives a chain's aggregator from raw
// wire payloads, decoding each into an arena struct of type B through the
// pooled wire codec. The chains differ only in the arena get/put pair and
// the codec method, which each aggregator's Decoder method supplies.
type chainDecoder[B any] struct {
	agg    chainAggregator
	what   string // "EOS block", "Tezos block", "XRP ledger": names the chain in errors
	get    func() *B
	put    func(*B)
	decode func(c *wire.Codec, raw []byte, into *B) error
}

// Decoder returns the EOS ingest-pool decoder over raw nodeos block JSON.
func (a *EOSAggregator) Decoder() ShardedDecoder {
	return &chainDecoder[wire.EOSBlockJSON]{a, "EOS block", wire.GetEOSBlock, wire.PutEOSBlock, (*wire.Codec).DecodeEOSBlock}
}

// Decoder returns the Tezos ingest-pool decoder over raw octez block JSON.
func (a *TezosAggregator) Decoder() ShardedDecoder {
	return &chainDecoder[wire.TezosBlockJSON]{a, "Tezos block", wire.GetTezosBlock, wire.PutTezosBlock, (*wire.Codec).DecodeTezosBlock}
}

// Decoder returns the XRP ingest-pool decoder over raw rippled ledger
// result envelopes.
func (a *XRPAggregator) Decoder() ShardedDecoder {
	return &chainDecoder[wire.XRPLedgerJSON]{a, "XRP ledger", wire.GetXRPLedger, wire.PutXRPLedger, (*wire.Codec).DecodeXRPLedgerResult}
}

// Decode parses one raw payload into an arena struct; ReleaseBatch
// recycles it after ingestion.
func (d *chainDecoder[B]) Decode(num int64, raw []byte) (any, error) {
	b := d.get()
	c := wire.GetCodec()
	err := d.decode(c, raw, b)
	wire.PutCodec(c)
	if err != nil {
		d.put(b)
		return nil, fmt.Errorf("core: decoding %s: %w", d.what, err)
	}
	return b, nil
}

// IngestBatch folds decoded blocks into the aggregator, one lock for the
// whole batch.
func (d *chainDecoder[B]) IngestBatch(batch []any) error { return d.agg.IngestBatch(batch) }

// ReleaseBatch returns decoded blocks to the wire arena.
func (d *chainDecoder[B]) ReleaseBatch(batch []any) {
	for _, b := range batch {
		d.put(b.(*B))
	}
}

// NewShard hands one ingest worker a private shard of the aggregator.
func (d *chainDecoder[B]) NewShard() Shard {
	return &stateSink{agg: d.agg, state: d.agg.NewState()}
}

// stateSink adapts the chain-agnostic ShardState contract to the ingest
// pool's Shard interface: a worker folds into its private state and merges
// it into the aggregator under the aggregator's lock.
type stateSink struct {
	agg   chainAggregator
	state ShardState
}

func (s *stateSink) IngestBatch(batch []any) error { return s.state.IngestBatch(batch) }

func (s *stateSink) Merge() {
	// A shard spawned from its own aggregator can never mismatch chain or
	// window, so an error here is a programming bug — same contract as
	// stats.TimeSeries.Merge.
	if err := s.agg.MergeState(s.state); err != nil {
		panic(err)
	}
}

// IngestConfig sizes the decode/ingest pool behind IngestStream and
// IngestArchive.
type IngestConfig struct {
	// Workers is the number of decode goroutines (IngestStream default 2,
	// IngestArchive default one per CPU). Decoding is the CPU-bound half of
	// ingestion; it runs off the crawl workers so fetch concurrency and
	// decode concurrency scale independently.
	Workers int
	// Batch is how many decoded blocks each worker accumulates before one
	// fold into its shard, so arena structs recycle in bulk (default 16).
	Batch int
	// MergeEvery is how many batches each worker folds into its private
	// shard between merges into the parent aggregator. 0 merges only at
	// drain — one aggregator lock acquisition per worker per run. A
	// positive value is the serving layer's mode: the aggregator absorbs
	// epoch-sized deltas that a mid-run Summarize can snapshot, at one
	// lock acquisition per worker per MergeEvery batches.
	MergeEvery int
}

// SnapshotMergeEvery is the MergeEvery of every ingest that feeds serving
// snapshots (serve feeds and the pipeline's serving sink): deltas land in
// the aggregator every 4 batches per worker.
const SnapshotMergeEvery = 4

func (c IngestConfig) withDefaults(workers int) IngestConfig {
	if c.Workers <= 0 {
		c.Workers = workers
	}
	if c.Batch <= 0 {
		c.Batch = 16
	}
	return c
}

// ingestWorker is one pool goroutine's private ingest state — the one
// worker loop behind both IngestStream and IngestArchive. It decodes each
// block into a batch of cfg.Batch, folds the full batch into the worker's
// own Shard without any lock, hands the decoded structs back through
// ReleaseBatch, and merges the shard into the aggregator every MergeEvery
// batches (if set).
type ingestWorker struct {
	dec      Decoder
	rel      BatchReleaser
	shard    Shard
	batch    []any
	every    int
	unmerged int // batches folded since the last merge
	ingested int64
}

// add decodes one raw payload into the worker's batch, folding the batch
// into the shard once it is full. raw may be recycled as soon as add
// returns: decoded structs own copies of everything they keep.
func (w *ingestWorker) add(num int64, raw []byte) error {
	dec, err := w.dec.Decode(num, raw)
	if err != nil {
		return fmt.Errorf("core: decoding block %d: %w", num, err)
	}
	w.batch = append(w.batch, dec)
	if len(w.batch) < cap(w.batch) {
		return nil
	}
	return w.flush()
}

// flush folds the pending batch into the worker's shard and recycles the
// decoded structs (the shard kept only strings).
func (w *ingestWorker) flush() error {
	if len(w.batch) == 0 {
		return nil
	}
	if err := w.shard.IngestBatch(w.batch); err != nil {
		return err
	}
	w.ingested += int64(len(w.batch))
	if w.rel != nil {
		w.rel.ReleaseBatch(w.batch)
	}
	w.batch = w.batch[:0]
	if w.every > 0 {
		if w.unmerged++; w.unmerged >= w.every {
			w.shard.Merge()
			w.unmerged = 0
		}
	}
	return nil
}

// ingestPool is one ingest run's workers, indexed by worker number.
type ingestPool []ingestWorker

// newIngestPool gives each of cfg.Workers workers its own shard. Only a
// ShardedDecoder can feed the pool: per-worker shards are what keep the
// aggregator lock off the hot path.
func newIngestPool(d Decoder, cfg IngestConfig) (ingestPool, error) {
	sharded, ok := d.(ShardedDecoder)
	if !ok {
		return nil, fmt.Errorf("core: decoder %T is not a ShardedDecoder", d)
	}
	rel, _ := d.(BatchReleaser)
	pool := make(ingestPool, cfg.Workers)
	for i := range pool {
		pool[i] = ingestWorker{
			dec:   d,
			rel:   rel,
			shard: sharded.NewShard(),
			batch: make([]any, 0, cfg.Batch),
			every: cfg.MergeEvery,
		}
	}
	return pool, nil
}

// drain folds every worker's partial batch and merges the shards into the
// aggregator in worker order — fixed, although workers finish in any
// order, and shard merges are insensitive to which worker ingested which
// block. It runs even after err, so a failed run still aggregates every
// block it decoded. It returns the blocks ingested and err, or the first
// flush error when err is nil.
func (p ingestPool) drain(err error) (int64, error) {
	var n int64
	for i := range p {
		if ferr := p[i].flush(); ferr != nil && err == nil {
			err = ferr
		}
		p[i].shard.Merge()
		n += p[i].ingested
	}
	return n, err
}

// IngestStream drains a crawl stream through a pool of cfg.Workers decode
// goroutines, each folding its blocks into a private shard (see
// ingestWorker) that merges into the aggregator at drain, or every
// cfg.MergeEvery batches. d must be a ShardedDecoder. It returns the
// number of blocks ingested and the first decode/ingest error.
//
// Cancellation is driven by the stream itself: when ctx is cancelled the
// crawl workers stop and close the channel, and IngestStream deliberately
// keeps draining until then — a block already handed to the stream counts
// as delivered for checkpointing, so it must be folded in before returning
// or a resumed crawl would skip it without it ever being aggregated. On a
// decode/ingest error, by contrast, the pool stops receiving immediately;
// the caller must then cancel the stream's context to unblock crawl
// workers behind a full buffer, and must not persist a checkpoint taken
// after the error (the pipeline's stage helper and cmd/crawl do both).
func IngestStream(ctx context.Context, blocks <-chan collect.Block, d Decoder, cfg IngestConfig) (int64, error) {
	pool, err := newIngestPool(d, cfg.withDefaults(2))
	if err != nil {
		return 0, err
	}
	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
	}
	for w := range pool {
		wg.Add(1)
		go func(w *ingestWorker) {
			defer wg.Done()
			for blk := range blocks {
				if failed.Load() {
					blk.Release()
					return
				}
				err := w.add(blk.Num, blk.Raw)
				blk.Release()
				if err != nil {
					fail(err)
					return
				}
			}
			// Fold the last partial batch here, in parallel with the other
			// workers: short streams (checkpoint-sized chunks) may never
			// fill a batch, and drain folds serially.
			if err := w.flush(); err != nil {
				fail(err)
			}
		}(&pool[w])
	}
	wg.Wait()
	return pool.drain(firstErr)
}

// ErrIngest marks errors that came from the decode/ingest side of
// IngestCrawl rather than the crawl itself. Callers that persist
// checkpoints must not do so when errors.Is(err, ErrIngest): the stream
// marked those blocks delivered, but they were never folded into the
// aggregate, so a resume would skip them forever.
var ErrIngest = errors.New("core: ingest failed")

// IngestCrawl is the one canonical wiring of the streaming path: it starts
// collect.Stream, drains it through IngestStream, and handles the
// cancel-on-ingest-error dance that unblocks crawl workers stalled on a
// full buffer. The pipeline stages, cmd/crawl and cmd/chainsim's
// self-check all run on it. The returned handle is valid after return for
// checkpointing (drained — IngestCrawl consumed the whole stream).
func IngestCrawl(ctx context.Context, f collect.BlockFetcher, ccfg collect.CrawlConfig, d Decoder, icfg IngestConfig) (collect.CrawlResult, *collect.CrawlHandle, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	blocks, handle := collect.Stream(ctx, f, ccfg)
	_, ierr := IngestStream(ctx, blocks, d, icfg)
	if ierr != nil {
		cancel() // unblock crawl workers stalled on a full buffer
	}
	res, cerr := handle.Wait()
	if ierr != nil {
		return res, handle, fmt.Errorf("%w: %w", ErrIngest, ierr)
	}
	return res, handle, cerr
}
