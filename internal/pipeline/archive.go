package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/collect"
	"repro/internal/core"
)

// stageArchiveDir is the per-stage archive location under Options.ArchiveDir
// ("" when archiving is off). ArchiveDir may be a blob-store URL; the
// stage lands under its path either way.
func (o Options) stageArchiveDir(stage string) string {
	if o.ArchiveDir == "" {
		return ""
	}
	return blobstore.Join(o.ArchiveDir, stage)
}

// replayReader resolves a stage's archive to a replay fetcher.
//
//   - no ArchiveDir, or no manifest yet: (nil, false, nil) — crawl live.
//   - a manifest covering [from, to] for the right chain: the Reader,
//     partial false.
//   - with Options.ResumeArchives, a manifest whose blocks all lie INSIDE
//     [from, to] but don't cover it — a run killed mid-crawl: the Reader,
//     partial true; stageCollect serves archived blocks from it and
//     crawls only the rest live, extending the archive to full coverage.
//   - anything else — wrong chain, corruption, blocks outside the range
//     (a scale/seed change since the archive was written): an error,
//     because replaying a subset or appending to an archive written under
//     different scenario parameters would silently skew every figure.
func (o Options) replayReader(stage, chain string, from, to int64) (rd *archive.Reader, partial bool, err error) {
	dir := o.stageArchiveDir(stage)
	if dir == "" {
		return nil, false, nil
	}
	rd, err = archive.Open(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("pipeline: stage %s archive: %w", stage, err)
	}
	if rd.Chain() != chain {
		return nil, false, fmt.Errorf("pipeline: stage %s archive %s holds chain %q, want %q", stage, dir, rd.Chain(), chain)
	}
	if rd.From() == from && rd.To() == to && rd.Covers(from, to) {
		return rd, false, nil
	}
	// Incomplete coverage whose every block still belongs to the stage's
	// range is exactly what a crash mid-crawl leaves behind — resumable
	// when the operator opted in. Blocks OUTSIDE the range can never come
	// from this scenario (a changed scale moves the simulated head), so
	// they always refuse loudly.
	if o.ResumeArchives && rd.From() >= from && rd.To() <= to {
		return rd, true, nil
	}
	return nil, false, fmt.Errorf("pipeline: stage %s archive %s covers [%d, %d] (%d blocks) but the stage needs exactly [%d, %d] — delete the archive directory to recrawl",
		stage, dir, rd.From(), rd.To(), rd.Blocks(), from, to)
}

// archiveWriter opens the write-through archive for a live stage crawl. It
// is only called when replayReader returned neither a reader nor an
// error, i.e. on a fresh archive directory. With archiving off it tees
// into null://, which keeps nothing but still compresses every segment,
// so Figure 2's compressed size is measured the same way either way.
func (o Options) archiveWriter(stage, chain string) (*archive.Writer, error) {
	dir := o.stageArchiveDir(stage)
	if dir == "" {
		dir = "null://"
	}
	w, err := archive.NewWriter(archive.WriterConfig{Dir: dir, Chain: chain})
	if err != nil {
		return nil, fmt.Errorf("pipeline: stage %s archive: %w", stage, err)
	}
	return w, nil
}

// stageSource is where one stage's blocks come from and where Figure 2's
// compressed size is read: a full replay walks rd's segments alone (no
// fetcher), a live crawl tees into sink, and a resume replays rd and tees
// the rest into sink.
type stageSource struct {
	fetcher collect.BlockFetcher
	rd      *archive.Reader
	sink    *archive.Writer
}

// crawl runs the stage's crawl, then finalizes its archive and fills
// GzipBytes from it. A finalization failure joins the crawl's own error so
// neither is lost — a stage whose crawl failed AND whose archive could not
// finalize must report both (the unfinalized archive is why the next run
// will demand a recrawl).
func (s stageSource) crawl(ctx context.Context, ccfg collect.CrawlConfig, dec core.Decoder, icfg core.IngestConfig) (collect.CrawlResult, error) {
	if s.fetcher == nil {
		return s.replay(ctx, dec, icfg)
	}
	res, err := crawlInto(ctx, s.fetcher, ccfg, dec, icfg)
	if s.sink != nil {
		if cerr := s.sink.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("pipeline: finalizing archive: %w", cerr))
		}
	}
	if err != nil {
		return res, err
	}
	res.GzipBytes = s.compressedBytes()
	return res, nil
}

// replay folds a full-coverage stage archive in through the segment walk
// (core.IngestArchive) and accounts for it as the live crawl that wrote
// it did: the same Blocks, RawBytes and GzipBytes.
func (s stageSource) replay(ctx context.Context, dec core.Decoder, icfg core.IngestConfig) (collect.CrawlResult, error) {
	start := time.Now()
	n, err := core.IngestArchive(ctx, s.rd, dec, icfg)
	res := collect.CrawlResult{Blocks: n, Elapsed: time.Since(start)}
	if err != nil {
		return res, err
	}
	res.RawBytes = s.rd.RawBytes()
	res.GzipBytes = s.compressedBytes()
	return res, nil
}

// compressedBytes is the stage archive's compressed size: the replayed
// segments plus those this run finalized, so a live run, its resume and
// a later replay of the same archive all report the manifest's total.
// It is -1 (unknown) when a replayed segment predates comp_bytes.
func (s stageSource) compressedBytes() int64 {
	var n int64
	if s.rd != nil {
		c, ok := s.rd.CompressedBytes()
		if !ok {
			return -1
		}
		n = c
	}
	if s.sink != nil {
		n += s.sink.CompressedBytes()
	}
	return n
}

// stageCollect resolves one stage's collection source: the archive's
// segment walk when the stage archive exactly covers [from, to], otherwise
// the live fetcher built by live() — teed into a fresh write-through
// archive (null:// when archiving is off), or composed with a partial
// archive (resume) so only the missing blocks are fetched live. live()
// runs only when live fetches are possible (a full replay skips serving
// and probing entirely) and returns its own teardown; the caller must
// defer the returned cleanup and run the crawl through the source's crawl
// method, which finalizes the archive.
func (o Options) stageCollect(stage, chain string, from, to int64, ccfg *collect.CrawlConfig, live func() (collect.BlockFetcher, func(), error)) (stageSource, func(), error) {
	noop := func() {}
	rd, partial, err := o.replayReader(stage, chain, from, to)
	if err != nil {
		return stageSource{}, noop, err
	}
	if rd != nil && !partial {
		return stageSource{rd: rd}, noop, nil
	}
	fetcher, cleanup, err := live()
	if cleanup == nil {
		cleanup = noop
	}
	if err != nil {
		return stageSource{}, cleanup, err
	}
	sink, err := o.archiveWriter(stage, chain)
	if err != nil {
		return stageSource{}, cleanup, err
	}
	if rd != nil {
		// Crash recovery: archived blocks replay from storage, the rest
		// fetch live and are teed by the composite itself — never through
		// ccfg.Tee, which would re-archive the replayed blocks too and
		// duplicate them in the manifest.
		return stageSource{fetcher: &resumeFetcher{rd: rd, live: fetcher, sink: sink}, rd: rd, sink: sink}, cleanup, nil
	}
	ccfg.Tee = sink.Append
	return stageSource{fetcher: fetcher, sink: sink}, cleanup, nil
}

// resumeFetcher extends an interrupted stage's archive: blocks the
// partial archive holds are served from it (zero network calls), every
// other block is fetched live and appended to the archive, so one
// resumed run leaves full coverage behind and folds every block —
// archived or live — into the same aggregate exactly once.
type resumeFetcher struct {
	rd   *archive.Reader
	live collect.BlockFetcher
	sink *archive.Writer
}

func (f *resumeFetcher) Head(ctx context.Context) (int64, error) { return f.live.Head(ctx) }

func (f *resumeFetcher) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	if f.rd.Covers(num, num) {
		return f.rd.FetchBlock(ctx, num)
	}
	raw, err := f.live.FetchBlock(ctx, num)
	if err != nil {
		return nil, err
	}
	if err := f.sink.Append(num, raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// OwnsRaw holds only when both sources guarantee caller-owned buffers.
func (f *resumeFetcher) OwnsRaw() bool {
	rr, ok := f.live.(interface{ OwnsRaw() bool })
	return ok && rr.OwnsRaw() && f.rd.OwnsRaw()
}
