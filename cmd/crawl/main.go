// Command crawl collects block history from a chain endpoint (such as one
// served by cmd/chainsim) in reverse chronological order, reporting the
// dataset characterization the paper's Figure 2 tabulates: block count,
// transaction count and gzip-compressed size. The compressed size is what
// the archive writer put: the summed comp_bytes of the finalized segments
// (without -archive the crawl tees into null://, which compresses and
// discards).
//
// Blocks flow through the bounded stream API (collect.Stream) into a
// decode/ingest pool (core.IngestStream), so fetching and measurement are
// decoupled the way the paper's long-running crawl machines were. With
// -checkpoint the crawl is resumable: SIGINT/SIGTERM cancels it cleanly,
// the partial summary and contiguous-frontier checkpoint are written, and
// the next invocation with the same flag skips every block already
// delivered.
//
// With -archive the crawl is durable as well: every raw block is teed
// into a segmented archive (see internal/archive) while it is ingested,
// and cmd/report -replay can later regenerate the figures from that
// location with zero network calls. The location is a blob store: a plain
// directory path, file://PATH, mem://NAME, s3://BUCKET/PREFIX?endpoint=URL,
// or null:// (see internal/blobstore). A completed crawl prints a
// deterministic "figures" section that a replay over the same archive
// reproduces byte-for-byte — on any backend — which the CI archive job
// diffs.
//
// With -shard i/n the crawl becomes one worker of a distributed crawl: it
// pins the block range (resolving head once if -to is 0), fetches only its
// i-th contiguous slice, and with -emit-shard serializes its drained
// aggregate into a blob store for cmd/merge to validate and fold with the
// other shards — the merged figures are byte-identical to a single-process
// crawl, which the CI distributed job diffs.
//
// With -checkpoint-every N the shard crawl becomes crash-recoverable: the
// slice is crawled in chunks of N blocks and after each chunk the FULL
// aggregate is persisted to the -emit-shard store (internal/coord), so a
// worker killed at any instant resumes from the last chunk boundary and
// still emits a complete shard — the resumed blocks live in the decoded
// checkpoint, not a skipped-frontier file, so nothing is silently short.
// cmd/coordinate drives fleets of such workers, handing each a -fence
// token (its slice lease's attempt count) that is stamped into the
// emitted shard; a worker whose lease was reclaimed mid-crawl emits a
// stale fence that validation and merge refuse, so it cannot clobber the
// reclaimer's newer shard.
//
// Usage:
//
//	crawl -chain eos   -endpoint http://127.0.0.1:PORT [-checkpoint FILE] [-archive STORE]
//	crawl -chain tezos -endpoint http://127.0.0.1:PORT [-checkpoint FILE] [-archive STORE]
//	crawl -chain xrp   -endpoint ws://127.0.0.1:PORT   [-checkpoint FILE] [-archive STORE]
//	crawl -chain eos   -endpoint URL -shard 2/3 -emit-shard STORE
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/cli"
	"repro/internal/collect"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/prof"
)

type crawlOpts struct {
	cli.ArchiveFlags
	chain           string
	endpoint        string
	checkpoint      string
	checkpointEvery int64
	workers         int
	ingest          int
	batch           int
	buffer          int
	shard           cli.ShardSpec
	emitShard       string
	fence           uint64
}

func main() {
	var o crawlOpts
	flag.StringVar(&o.chain, "chain", "", "eos, tezos or xrp")
	flag.StringVar(&o.endpoint, "endpoint", "", "endpoint URL")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint file: resume from it if present, write it on exit")
	flag.Int64Var(&o.checkpointEvery, "checkpoint-every", 0, "blocks per crash-recoverable chunk: with -emit-shard, persist the full aggregate to the shard store after each chunk and resume from it after a kill (incompatible with -checkpoint and -archive)")
	o.ArchiveFlags.Register(flag.CommandLine, cli.ModeCrawl)
	flag.IntVar(&o.workers, "workers", 4, "concurrent fetchers (xrp uses 1)")
	flag.IntVar(&o.ingest, "ingest", 2, "decode/ingest workers")
	flag.IntVar(&o.batch, "batch", 16, "blocks per aggregator lock acquisition")
	flag.IntVar(&o.buffer, "buffer", 64, "stream buffer: max fetched-but-unprocessed blocks")
	flag.Var(&o.shard, "shard", "crawl shard i of n ('i/n'): fetch only the i-th contiguous slice of the block range (distributed crawl; combine with -emit-shard and cmd/merge)")
	flag.StringVar(&o.emitShard, "emit-shard", "", "after a clean crawl, serialize the drained shard state into this blob-store location for cmd/merge")
	flag.Uint64Var(&o.fence, "fence", 0, "lease fence token to stamp into the emitted shard (set by cmd/coordinate; a stale fence is refused at validation and merge)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof evidence for perf work)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if o.chain == "" || o.endpoint == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := o.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(2)
	}
	if err := cli.ValidateStore(o.emitShard); err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(2)
	}

	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(1)
	}

	// SIGINT/SIGTERM cancels the crawl context; the stream drains, the
	// partial summary prints, and the checkpoint (if requested) is saved.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = run(ctx, o, os.Stdout)
	// A profile-write failure surfaces even when the crawl itself failed:
	// the failing run is exactly the one whose profile evidence matters.
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, "crawl:", perr)
		if err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(1)
	}
}

// run executes one crawl. It is the whole command behind flag parsing and
// signal wiring so tests can drive interruption and resume deterministically.
func run(ctx context.Context, o crawlOpts, out io.Writer) error {
	kit, err := core.NewStatsKit(o.chain, chain.ObservationStart, 6*time.Hour)
	if err != nil {
		return fmt.Errorf("unknown chain %q", o.chain)
	}
	fetcher, workers, err := collect.NewClient(o.chain, o.endpoint, o.workers)
	if err != nil {
		return err
	}
	if c, ok := fetcher.(io.Closer); ok {
		defer c.Close()
	}
	o.workers = workers

	from, to := o.From, o.To
	if o.shard.Enabled() {
		// A shard crawls a fixed slice, so the range must be concrete
		// before the cut: resolve head once here rather than letting each
		// shard race the growing chain to its own notion of "head" —
		// n processes started with the same -from/-to always tile the
		// same span only if that span is pinned.
		if to == 0 {
			if to, err = fetcher.Head(ctx); err != nil {
				return fmt.Errorf("resolving head for -shard %s: %w", o.shard.String(), err)
			}
		}
		fullFrom, fullTo := from, to
		if from, to, err = o.shard.Cut(from, to); err != nil {
			return err
		}
		fmt.Fprintf(out, "shard:       %s of [%d, %d] -> [%d, %d]\n", o.shard.String(), fullFrom, fullTo, from, to)
	}

	if o.checkpointEvery > 0 {
		// Crash-recoverable mode: the crawl runs in chunks and persists the
		// FULL aggregate to the shard store after each one, so a killed
		// worker resumes into a shard-emittable state (unlike -checkpoint,
		// whose frontier file records which blocks are done but not their
		// contribution to this process's aggregate).
		if o.emitShard == "" {
			return fmt.Errorf("-checkpoint-every requires -emit-shard: the crash-recoverable checkpoint lives in the shard store")
		}
		if o.checkpoint != "" {
			return fmt.Errorf("-checkpoint-every is incompatible with -checkpoint: the blob-store checkpoint already carries the full aggregate, pick one")
		}
		if o.Archive != "" {
			return fmt.Errorf("-checkpoint-every is incompatible with -archive: a resumed chunk would re-tee blocks the archive already holds")
		}
		if to == 0 {
			if to, err = fetcher.Head(ctx); err != nil {
				return fmt.Errorf("resolving head for -checkpoint-every: %w", err)
			}
		}
		store, err := blobstore.Resolve(o.emitShard)
		if err != nil {
			return err
		}
		outc, err := coord.RunShardCrawl(ctx, coord.CrawlerConfig{
			Kit: kit, Fetcher: fetcher, From: from, To: to,
			Store: store, CheckpointEvery: o.checkpointEvery,
			Workers: o.workers, Ingest: o.ingest, Batch: o.batch, Buffer: o.buffer,
			Fence: o.fence,
			Log:   out,
		})
		fmt.Fprintf(out, "chain:       %s\n", o.chain)
		fmt.Fprintf(out, "blocks:      %d (retries %d)\n", outc.Blocks, outc.Retries)
		if outc.Resumed.Known() {
			fmt.Fprintf(out, "resumed:     %s arrived via the blob-store checkpoint, not refetched\n", outc.Resumed)
		}
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(out, "interrupted — rerun with the same flags to resume from the last checkpoint")
			}
			return err
		}
		fmt.Fprint(out, kit.Summarize().Render())
		return nil
	}

	cfg := collect.CrawlConfig{
		From: from, To: to,
		Workers: o.workers, Buffer: o.buffer,
	}
	// Without -archive the tee goes to null://: nothing is kept, but the
	// segments are still compressed, which is where "gzip bytes" comes from.
	archiveDir := o.Archive
	if archiveDir == "" {
		archiveDir = "null://"
	}
	sink, err := archive.NewWriter(archive.WriterConfig{Dir: archiveDir, Chain: o.chain})
	if err != nil {
		return err
	}
	cfg.Tee = sink.Append
	if o.checkpoint != "" {
		cp, err := collect.LoadCheckpoint(o.checkpoint)
		switch {
		case err == nil:
			cfg.Resume = &cp
			fmt.Fprintf(out, "resuming:    range [%d, %d], %d blocks remaining (checkpoint %s)\n",
				cp.From, cp.To, cp.Remaining(), o.checkpoint)
		case os.IsNotExist(err):
			// Fresh crawl; the checkpoint is written on exit.
		default:
			return err
		}
	}

	res, handle, err := core.IngestCrawl(ctx, fetcher, cfg, kit.Decoder, core.IngestConfig{Workers: o.ingest, Batch: o.batch})
	// The stream is fully drained, so no Append can still be in flight;
	// finalize the archive before reporting anything. Interrupted and
	// failed crawls finalize too — everything teed so far is intact and a
	// rerun with the same -archive extends it. A finalization failure
	// joins any crawl error (both must surface) and, like a tee error,
	// vetoes the checkpoint below: blocks in the segment that failed to
	// finalize were delivered and marked done, and checkpointing them
	// would leave the archive short of them forever.
	var archiveErr error
	if cerr := sink.Close(); cerr != nil {
		archiveErr = fmt.Errorf("finalizing archive: %w", cerr)
		err = errors.Join(err, archiveErr)
	}
	res.GzipBytes = sink.CompressedBytes()
	interrupted := errors.Is(err, context.Canceled) && !errors.Is(err, core.ErrIngest) && archiveErr == nil
	fmt.Fprintf(out, "chain:       %s\n", o.chain)
	fmt.Fprintf(out, "blocks:      %d (failed %d, retries %d)\n", res.Blocks, res.Failed, res.Retries)
	fmt.Fprintf(out, "skipped:     %d (already in checkpoint)\n", res.Skipped)
	fmt.Fprintf(out, "txs/ops:     %d\n", kit.Txs())
	fmt.Fprintf(out, "raw bytes:   %d\n", res.RawBytes)
	if res.RawBytes > 0 {
		fmt.Fprintf(out, "gzip bytes:  %d (%.1f%% of raw)\n", res.GzipBytes, 100*float64(res.GzipBytes)/float64(res.RawBytes))
	}
	if secs := res.Elapsed.Seconds(); secs > 0 {
		fmt.Fprintf(out, "elapsed:     %v (%.0f blocks/s)\n", res.Elapsed, float64(res.Blocks)/secs)
	}
	if o.Archive != "" {
		fmt.Fprintf(out, "archive:     %s (%d blocks teed, %d segments)\n", o.Archive, sink.Blocks(), sink.Segments())
	}

	// Persist progress — but never over an ingest error (blocks the stream
	// delivered but the pool failed to fold in would be recorded as done
	// and skipped forever on resume), never over a tee error (delivered
	// blocks may share a discarded archive segment with the failed write,
	// so a resume would skip blocks the archive never kept), and never
	// before the crawl resolved its range (cp.To == 0: an all-zero
	// checkpoint would fail validation on every later run and brick the
	// file).
	saved := false
	if o.checkpoint != "" && !errors.Is(err, core.ErrIngest) && !errors.Is(err, collect.ErrTee) && archiveErr == nil {
		if cp := handle.Checkpoint(); cp.To > 0 {
			if serr := cp.Save(o.checkpoint); serr != nil {
				return fmt.Errorf("saving checkpoint: %w", serr)
			}
			saved = true
			fmt.Fprintf(out, "checkpoint:  %s (frontier %d, %d blocks remaining)\n",
				o.checkpoint, cp.Frontier, cp.Remaining())
		}
	}

	if interrupted {
		if !saved {
			return fmt.Errorf("interrupted before any progress could be checkpointed: %w", err)
		}
		fmt.Fprintln(out, "interrupted — rerun with the same -checkpoint to resume")
		return nil
	}
	if err == nil && o.emitShard != "" {
		// Serialize the drained shard state for cmd/merge. A resumed run
		// must refuse: blocks the checkpoint skipped were never folded
		// into THIS process's aggregate, so the emitted shard would claim
		// a range it does not fully cover and the merged figures would be
		// silently short.
		if res.Skipped > 0 {
			return fmt.Errorf("refusing to emit a shard: %d blocks arrived via the checkpoint file, not this run's aggregate — use -checkpoint-every instead, whose blob-store checkpoints carry the full aggregate and resume straight into an emittable shard", res.Skipped)
		}
		cp := handle.Checkpoint()
		st := kit.State()
		st.SetCovered(core.BlockRange{From: cp.From, To: cp.To})
		key, serr := core.EmitShardFenced(ctx, o.emitShard, st, o.fence)
		if serr != nil {
			return serr
		}
		fmt.Fprintf(out, "emitted:     %s @ %s\n", key, o.emitShard)
	}
	if err == nil {
		// The deterministic figures section: derived only from the set of
		// blocks this run ingested, so an offline replay of the same
		// archive (cmd/report -replay) reproduces it byte-for-byte.
		fmt.Fprint(out, kit.Summarize().Render())
	}
	return err
}
