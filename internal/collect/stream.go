package collect

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Block is one fetched payload flowing through a crawl stream: the raw wire
// bytes, still undecoded, so crawl workers never pay decode or aggregation
// cost. Decoding happens downstream (see core.IngestStream, whose workers
// fold decoded blocks into private mergeable shards — any stream consumer
// may therefore take blocks from this channel concurrently without
// coordinating beyond the channel itself).
//
// Release recycles the payload buffer once the consumer has extracted
// everything it needs. After Release, Raw is nil and the consumer must hold
// no view into the old bytes (decoded structs are safe: the wire codecs
// copy every string they keep). Release is a no-op for blocks whose fetcher
// did not declare raw ownership, so legacy sinks and test fetchers that
// share buffers stay correct.
type Block struct {
	Num int64
	Raw []byte
	// pooled marks Raw as exclusively owned and recyclable (set by Stream
	// when the fetcher implements RawRecycler).
	pooled bool
}

// Release returns the payload buffer to the recycling pool. Safe to call
// multiple times; only the first has effect.
func (b *Block) Release() {
	if b.pooled && b.Raw != nil {
		wire.PutRaw(b.Raw)
	}
	b.Raw = nil
	b.pooled = false
}

// RawRecycler is implemented by BlockFetchers whose FetchBlock results are
// exclusively owned by the caller — each returned slice has no other
// holder, so the stream may recycle it through wire.PutRaw after the
// consumer calls Block.Release. The repo's chain clients and the archive
// reader all qualify; fetchers that replay shared buffers must not.
type RawRecycler interface {
	OwnsRaw() bool
}

// ErrTee marks a crawl failure that came from the CrawlConfig.Tee hook
// rather than fetching. Callers persisting checkpoints must not do so when
// errors.Is(err, ErrTee): blocks delivered earlier in the run may share a
// discarded archive segment with the failed write, so recording them as
// done would let a resume skip blocks the archive never kept.
var ErrTee = errors.New("collect: tee failed")

// Checkpoint records how far a crawl got, durably enough to resume it. The
// crawler walks the range in reverse chronological order, so completion
// grows downward from To: Frontier is the lowest block number such that
// every block in [Frontier, To] has been delivered (Frontier = To+1 means
// none yet). Stride sharding (and blocks that exhaust their retries) lets
// workers complete blocks below the contiguous frontier; those are kept as
// inclusive [lo, hi] ranges in Extra so a resumed crawl refetches nothing,
// and so the checkpoint stays a handful of ranges — not a per-block list —
// even when one stubborn block pins the frontier for a hundred-million-block
// crawl.
type Checkpoint struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
	// Frontier: all of [Frontier, To] is done.
	Frontier int64 `json:"frontier"`
	// Extra lists inclusive [lo, hi] ranges of delivered blocks below the
	// frontier, ascending and disjoint.
	Extra [][2]int64 `json:"extra,omitempty"`
}

// Done reports whether num was already delivered when the checkpoint was
// taken.
func (c Checkpoint) Done(num int64) bool {
	if num >= c.Frontier && num <= c.To {
		return true
	}
	i := sort.Search(len(c.Extra), func(i int) bool { return c.Extra[i][1] >= num })
	return i < len(c.Extra) && c.Extra[i][0] <= num
}

// Remaining counts the blocks a resumed crawl still has to fetch.
func (c Checkpoint) Remaining() int64 {
	if c.To == 0 || c.Frontier <= c.From {
		return 0
	}
	rem := c.Frontier - c.From
	for _, r := range c.Extra {
		rem -= r[1] - r[0] + 1
	}
	return rem
}

// Save writes the checkpoint atomically (temp file + rename) so a crash
// mid-write never corrupts an existing checkpoint.
func (c Checkpoint) Save(path string) error {
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("collect: encoding checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads a checkpoint written by Save. A missing file is
// reported via os.IsNotExist so callers can treat it as a fresh crawl.
func LoadCheckpoint(path string) (Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, err
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return Checkpoint{}, fmt.Errorf("collect: decoding checkpoint %s: %w", path, err)
	}
	if c.To <= 0 || c.From <= 0 || c.From > c.To {
		return Checkpoint{}, fmt.Errorf("collect: checkpoint %s has invalid range [%d, %d]", path, c.From, c.To)
	}
	if c.Frontier <= 0 || c.Frontier > c.To+1 {
		c.Frontier = c.To + 1
	}
	for i, r := range c.Extra {
		if r[0] > r[1] {
			return Checkpoint{}, fmt.Errorf("collect: checkpoint %s has inverted extra range %v", path, r)
		}
		if i > 0 && c.Extra[i-1][1] >= r[0] {
			return Checkpoint{}, fmt.Errorf("collect: checkpoint %s has unsorted extra ranges", path)
		}
	}
	return c, nil
}

// CrawlHandle tracks a streaming crawl: progress for checkpointing while it
// runs, and the final CrawlResult once the stream closes. All methods are
// safe for concurrent use.
//
// Delivered blocks are tracked as the contiguous frontier plus an interval
// set of completions below it, so memory stays proportional to the number
// of gaps (at most the worker count plus permanently failed blocks), not
// the crawl length.
type CrawlHandle struct {
	mu       sync.Mutex
	from, to int64
	frontier int64
	ivs      [][2]int64 // delivered ranges below frontier-1: ascending, disjoint, non-adjacent

	res      CrawlResult
	err      error
	finished chan struct{}
}

// markDone records a delivered block, merging it into the interval set and
// advancing the contiguous frontier through it.
func (h *CrawlHandle) markDone(num int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if num >= h.frontier {
		return // already covered
	}
	if num == h.frontier-1 {
		h.frontier = num
		// Absorb intervals that just became adjacent to the frontier.
		for n := len(h.ivs); n > 0 && h.ivs[n-1][1] == h.frontier-1; n = len(h.ivs) {
			h.frontier = h.ivs[n-1][0]
			h.ivs = h.ivs[:n-1]
		}
		return
	}
	// First interval whose end reaches num-1: the only candidate num can
	// touch or fall into.
	i := sort.Search(len(h.ivs), func(i int) bool { return h.ivs[i][1] >= num-1 })
	switch {
	case i == len(h.ivs) || h.ivs[i][0] > num+1:
		// Disjoint from every neighbour: insert a fresh point interval.
		h.ivs = append(h.ivs, [2]int64{})
		copy(h.ivs[i+1:], h.ivs[i:])
		h.ivs[i] = [2]int64{num, num}
	case h.ivs[i][0] <= num && num <= h.ivs[i][1]:
		// Duplicate delivery; nothing to do.
	default:
		// Extend the touching interval by one.
		if num < h.ivs[i][0] {
			h.ivs[i][0] = num
		} else {
			h.ivs[i][1] = num
		}
		// The extension may have bridged the gap to the next interval.
		if i+1 < len(h.ivs) && h.ivs[i][1] == h.ivs[i+1][0]-1 {
			h.ivs[i][1] = h.ivs[i+1][1]
			h.ivs = append(h.ivs[:i+1], h.ivs[i+2:]...)
		}
	}
}

// Checkpoint snapshots the crawl's progress. It may be called at any time,
// including concurrently with the crawl; for a checkpoint that is safe to
// resume from, drain the stream (process every received Block) before
// persisting it, because a block counts as done once it is handed to the
// stream, not once the consumer finished with it.
func (h *CrawlHandle) Checkpoint() Checkpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := Checkpoint{From: h.from, To: h.to, Frontier: h.frontier}
	c.Extra = append(c.Extra, h.ivs...)
	return c
}

// Wait blocks until the crawl finishes (the stream channel is closed first)
// and returns its result. A cancelled crawl reports ctx's error alongside
// the partial result.
func (h *CrawlHandle) Wait() (CrawlResult, error) {
	<-h.finished
	return h.res, h.err
}

// Stream starts a crawl whose fetched blocks flow through the returned
// bounded channel (capacity CrawlConfig.Buffer). Crawl workers block once
// the buffer fills, so a slow consumer exerts real backpressure on the
// fetch side instead of stalling inside a callback. The channel is closed
// when the crawl finishes, fails, or ctx is cancelled; after it closes,
// CrawlHandle.Wait returns the CrawlResult. CrawlConfig.Resume skips
// blocks a previous crawl already delivered (counted in CrawlResult.Skipped).
func Stream(ctx context.Context, f BlockFetcher, cfg CrawlConfig) (<-chan Block, *CrawlHandle) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 64
	}
	out := make(chan Block, cfg.Buffer)
	h := &CrawlHandle{finished: make(chan struct{})}
	go h.run(ctx, f, cfg, out)
	return out, h
}

func (h *CrawlHandle) run(ctx context.Context, f BlockFetcher, cfg CrawlConfig, out chan<- Block) {
	start := time.Now()
	finish := func(err error) {
		h.res.Elapsed = time.Since(start)
		h.err = err
		close(out)
		close(h.finished)
	}

	// Resolve the range. A resumed crawl is pinned to the checkpoint's
	// range: the frontier is only meaningful relative to the To it was
	// recorded against.
	if cfg.Resume != nil {
		cfg.From, cfg.To = cfg.Resume.From, cfg.Resume.To
	}
	if cfg.To == 0 {
		head, err := resolveHead(ctx, f, cfg)
		if err != nil {
			finish(fmt.Errorf("collect: resolving head: %w", err))
			return
		}
		cfg.To = head
	}
	if cfg.From <= 0 {
		cfg.From = 1
	}
	if cfg.From > cfg.To {
		finish(fmt.Errorf("collect: empty range [%d, %d]", cfg.From, cfg.To))
		return
	}

	h.mu.Lock()
	h.from, h.to = cfg.From, cfg.To
	h.frontier = cfg.To + 1
	if cfg.Resume != nil {
		if fr := cfg.Resume.Frontier; fr >= cfg.From && fr <= cfg.To+1 {
			h.frontier = fr
		}
		// Seed the interval set from the checkpoint's extra ranges
		// (ascending and disjoint per the Checkpoint contract), clipped to
		// the live range, then fold ranges adjacent to the frontier in.
		for _, r := range cfg.Resume.Extra {
			lo, hi := r[0], r[1]
			if lo < cfg.From {
				lo = cfg.From
			}
			if hi >= h.frontier {
				hi = h.frontier - 1
			}
			if lo <= hi {
				h.ivs = append(h.ivs, [2]int64{lo, hi})
			}
		}
		for n := len(h.ivs); n > 0 && h.ivs[n-1][1] == h.frontier-1; n = len(h.ivs) {
			h.frontier = h.ivs[n-1][0]
			h.ivs = h.ivs[:n-1]
		}
	}
	// Snapshot the sanitized resume state; Done over it is the skip
	// predicate for the workers (the snapshot never mutates, so no lock).
	resumed := Checkpoint{From: cfg.From, To: cfg.To, Frontier: h.frontier}
	resumed.Extra = append(resumed.Extra, h.ivs...)
	h.mu.Unlock()

	// Payload buffers recycle only when the fetcher guarantees exclusive
	// ownership of what FetchBlock returns.
	var recycle bool
	if rr, ok := f.(RawRecycler); ok {
		recycle = rr.OwnsRaw()
	}
	var wg sync.WaitGroup
	// firstErr must not be an atomic.Value: the error concrete types vary
	// (wrapped fetch errors vs. ErrTee-joined tee errors), and
	// atomic.Value.CompareAndSwap panics on inconsistently typed values.
	var firstErr onceError
	// A failed tee (disk full, torn archive directory) is not a per-block
	// condition like a fetch error: every later block would fail the same
	// way, so the whole crawl stops.
	var teeFailed atomic.Bool

	// Reverse chronological order, sharded by stride: worker k owns
	// To-k, To-k-Workers, … down to From.
	stride := int64(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(offset int64) {
			defer wg.Done()
			for num := cfg.To - offset; num >= cfg.From; num -= stride {
				if ctx.Err() != nil || teeFailed.Load() {
					return
				}
				if resumed.Done(num) {
					atomic.AddInt64(&h.res.Skipped, 1)
					continue
				}
				raw, err := fetchWithRetry(ctx, f, num, cfg, &h.res.Retries)
				if err != nil {
					atomic.AddInt64(&h.res.Failed, 1)
					firstErr.set(err)
					continue
				}
				if cfg.Tee != nil {
					if err := cfg.Tee(num, raw); err != nil {
						firstErr.set(fmt.Errorf("%w: block %d: %w", ErrTee, num, err))
						teeFailed.Store(true)
						return
					}
				}
				select {
				case out <- Block{Num: num, Raw: raw, pooled: recycle}:
					atomic.AddInt64(&h.res.Blocks, 1)
					atomic.AddInt64(&h.res.RawBytes, int64(len(raw)))
					h.markDone(num)
				case <-ctx.Done():
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()

	err := firstErr.get()
	if err == nil {
		err = ctx.Err()
	}
	finish(err)
}

// onceError keeps the first error set, under a mutex so error values of
// any concrete type can race to report.
type onceError struct {
	mu  sync.Mutex
	err error
}

func (o *onceError) set(err error) {
	o.mu.Lock()
	if o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
}

func (o *onceError) get() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}
