package collect

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memFetcher serves synthetic blocks from memory and records every fetch so
// tests can assert exactly which blocks were requested. Block numbers in
// fail always error, simulating a permanently broken block.
type memFetcher struct {
	blocks  int64
	latency time.Duration
	fail    map[int64]bool

	mu      sync.Mutex
	fetched map[int64]int
	total   int64
}

func newMemFetcher(blocks int64, latency time.Duration) *memFetcher {
	return &memFetcher{blocks: blocks, latency: latency, fetched: make(map[int64]int)}
}

func (f *memFetcher) Head(ctx context.Context) (int64, error) { return f.blocks, nil }

func (f *memFetcher) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	if num < 1 || num > f.blocks {
		return nil, fmt.Errorf("memFetcher: no block %d", num)
	}
	if f.latency > 0 {
		select {
		case <-time.After(f.latency):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f.mu.Lock()
	f.fetched[num]++
	f.total++
	f.mu.Unlock()
	if f.fail[num] {
		return nil, fmt.Errorf("memFetcher: block %d is broken", num)
	}
	return []byte(fmt.Sprintf(`{"num":%d}`, num)), nil
}

func (f *memFetcher) totalFetches() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

func (f *memFetcher) fetchedNums() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	nums := make([]int64, 0, len(f.fetched))
	for n := range f.fetched {
		nums = append(nums, n)
	}
	return nums
}

// TestStreamBackpressure: a stalled consumer must stop the fetch side after
// at most Buffer buffered blocks plus one in-hand block per worker.
func TestStreamBackpressure(t *testing.T) {
	const workers, buffer, total = 4, 8, 100
	f := newMemFetcher(total, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocks, h := Stream(ctx, f, CrawlConfig{Workers: workers, Buffer: buffer})
	if cap(blocks) != buffer {
		t.Fatalf("stream buffer = %d, want %d", cap(blocks), buffer)
	}

	// Consume nothing; wait for the fetch count to go quiescent.
	last, stableFor := int64(-1), 0
	for i := 0; i < 200 && stableFor < 5; i++ {
		time.Sleep(10 * time.Millisecond)
		cur := f.totalFetches()
		if cur == last {
			stableFor++
		} else {
			stableFor = 0
		}
		last = cur
	}
	if stableFor < 5 {
		t.Fatal("fetch count never went quiescent against a stalled consumer")
	}
	if last > buffer+workers {
		t.Fatalf("stalled consumer let %d fetches through, want <= %d (buffer %d + workers %d)",
			last, buffer+workers, buffer, workers)
	}
	if last < buffer {
		t.Fatalf("only %d fetches before stall, want at least the buffer (%d)", last, buffer)
	}

	// Unstall: the crawl must finish and deliver everything exactly once.
	seen := make(map[int64]bool)
	for blk := range blocks {
		if seen[blk.Num] {
			t.Fatalf("block %d delivered twice", blk.Num)
		}
		seen[blk.Num] = true
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != total || len(seen) != total {
		t.Fatalf("blocks = %d, delivered %d, want %d", res.Blocks, len(seen), total)
	}
}

// TestStreamCancellationDrains: cancelling mid-stream must close the
// channel, surface ctx's error from Wait, and leak no goroutines.
func TestStreamCancellationDrains(t *testing.T) {
	before := runtime.NumGoroutine()

	f := newMemFetcher(500, time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocks, h := Stream(ctx, f, CrawlConfig{Workers: 4, Buffer: 4})
	received := 0
	for range blocks {
		received++
		if received == 20 {
			cancel()
		}
	}
	res, err := h.Wait()
	if err == nil {
		t.Fatal("cancelled stream reported success")
	}
	if res.Blocks < 20 {
		t.Fatalf("res.Blocks = %d, want >= 20 delivered before cancel", res.Blocks)
	}

	// All crawl goroutines must unwind.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before stream, %d after drain", before, runtime.NumGoroutine())
}

// TestStreamCheckpointResume: an interrupted crawl's checkpoint must let a
// resumed crawl skip every delivered block and fetch each remaining block
// exactly once.
func TestStreamCheckpointResume(t *testing.T) {
	const total = 30
	f1 := newMemFetcher(total, 0)
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	blocks1, h1 := Stream(ctx1, f1, CrawlConfig{Workers: 2, Buffer: 4})
	received := 0
	for range blocks1 {
		received++
		if received == 10 {
			cancel1()
		}
		// Keep draining after cancel: delivered blocks count as done, so
		// the checkpoint is only resume-safe once the stream is drained.
	}
	if _, err := h1.Wait(); err == nil {
		t.Fatal("interrupted crawl reported success")
	}
	cp := h1.Checkpoint()
	if cp.From != 1 || cp.To != total {
		t.Fatalf("checkpoint range [%d, %d], want [1, %d]", cp.From, cp.To, total)
	}
	done := int64(0)
	for n := int64(1); n <= total; n++ {
		if cp.Done(n) {
			done++
		}
	}
	if done != int64(received) {
		t.Fatalf("checkpoint records %d done, but %d blocks were delivered", done, received)
	}
	if cp.Remaining() != total-done {
		t.Fatalf("Remaining() = %d, want %d", cp.Remaining(), total-done)
	}

	// Resume against a fresh fetch log.
	f2 := newMemFetcher(total, 0)
	blocks2, h2 := Stream(context.Background(), f2, CrawlConfig{Workers: 2, Resume: &cp})
	delivered2 := make(map[int64]bool)
	for blk := range blocks2 {
		delivered2[blk.Num] = true
	}
	res2, err := h2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, num := range f2.fetchedNums() {
		if cp.Done(num) {
			t.Fatalf("resume refetched block %d, which the checkpoint records as done", num)
		}
	}
	if res2.Skipped != done {
		t.Fatalf("resume skipped %d, want %d", res2.Skipped, done)
	}
	if res2.Blocks+res2.Skipped != total {
		t.Fatalf("resume blocks %d + skipped %d != %d", res2.Blocks, res2.Skipped, total)
	}
	for n := int64(1); n <= total; n++ {
		if !cp.Done(n) && !delivered2[n] {
			t.Fatalf("block %d neither checkpointed nor delivered by the resume", n)
		}
	}

	// A checkpoint taken after a completed crawl leaves nothing to do.
	cpDone := h2.Checkpoint()
	if cpDone.Frontier != 1 || cpDone.Remaining() != 0 {
		t.Fatalf("completed checkpoint: frontier %d remaining %d", cpDone.Frontier, cpDone.Remaining())
	}
}

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crawl.ckpt")
	cp := Checkpoint{From: 5, To: 90, Frontier: 42, Extra: [][2]int64{{7, 9}, {19, 19}}}
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != cp.From || got.To != cp.To || got.Frontier != cp.Frontier || len(got.Extra) != 2 {
		t.Fatalf("round trip mangled checkpoint: %+v", got)
	}
	if !got.Done(42) || !got.Done(90) || !got.Done(7) || !got.Done(8) || !got.Done(9) || !got.Done(19) {
		t.Fatal("Done() misses delivered blocks after round trip")
	}
	if got.Done(6) || got.Done(10) || got.Done(41) {
		t.Fatal("Done() claims undelivered blocks after round trip")
	}
	if got.Remaining() != (42-5)-3-1 {
		t.Fatalf("Remaining() = %d", got.Remaining())
	}

	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("missing checkpoint: err = %v, want IsNotExist", err)
	}
	for name, content := range map[string]string{
		"inverted-range.ckpt": `{"from":9,"to":3}`,
		"inverted-extra.ckpt": `{"from":1,"to":9,"frontier":8,"extra":[[5,2]]}`,
		"unsorted-extra.ckpt": `{"from":1,"to":99,"frontier":90,"extra":[[5,8],[2,3]]}`,
	} {
		bad := filepath.Join(dir, name)
		os.WriteFile(bad, []byte(content), 0o644)
		if _, err := LoadCheckpoint(bad); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestCheckpointStaysCompactPastFailedBlock: a block that exhausts its
// retries pins the frontier, but the delivered blocks beyond it must
// coalesce into O(gaps) ranges — not one entry per block — or checkpoints
// of paper-scale crawls (hundreds of millions of blocks) blow up.
func TestCheckpointStaysCompactPastFailedBlock(t *testing.T) {
	const total = 200
	f := newMemFetcher(total, 0)
	f.fail = map[int64]bool{150: true}
	blocks, h := Stream(context.Background(), f, CrawlConfig{
		Workers: 4, Buffer: 8, MaxRetries: 1, Backoff: time.Microsecond,
	})
	for range blocks {
	}
	if _, err := h.Wait(); err == nil {
		t.Fatal("crawl with a broken block reported success")
	}
	cp := h.Checkpoint()
	if cp.Frontier != 151 {
		t.Fatalf("frontier = %d, want 151 (block 150 never delivered)", cp.Frontier)
	}
	if len(cp.Extra) != 1 || cp.Extra[0] != [2]int64{1, 149} {
		t.Fatalf("extra ranges not coalesced: %v", cp.Extra)
	}
	if cp.Remaining() != 1 {
		t.Fatalf("Remaining() = %d, want 1 (just the broken block)", cp.Remaining())
	}

	// Resume with the block fixed: exactly one fetch, nothing else.
	f2 := newMemFetcher(total, 0)
	blocks2, h2 := Stream(context.Background(), f2, CrawlConfig{Workers: 4, Resume: &cp})
	for range blocks2 {
	}
	res2, err := h2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if nums := f2.fetchedNums(); len(nums) != 1 || nums[0] != 150 {
		t.Fatalf("resume fetched %v, want just block 150", nums)
	}
	if res2.Blocks != 1 || res2.Skipped != total-1 {
		t.Fatalf("resume blocks=%d skipped=%d", res2.Blocks, res2.Skipped)
	}
}

// TestStreamResumePinsRange: a resumed crawl must crawl the checkpoint's
// range even when the endpoint's head has advanced past it.
func TestStreamResumePinsRange(t *testing.T) {
	cp := Checkpoint{From: 1, To: 10, Frontier: 6}
	f := newMemFetcher(50, 0) // head is now 50
	blocks, h := Stream(context.Background(), f, CrawlConfig{Workers: 2, Resume: &cp})
	var max int64
	for blk := range blocks {
		if blk.Num > max {
			max = blk.Num
		}
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if max > 5 {
		t.Fatalf("resume fetched block %d beyond the checkpoint frontier", max)
	}
	if res.Blocks != 5 || res.Skipped != 5 {
		t.Fatalf("resume fetched %d skipped %d, want 5/5", res.Blocks, res.Skipped)
	}
}

// TestStreamTeeSeesEveryDeliveredBlock: the tee must observe exactly the
// delivered set — no gaps (the archive would silently short-count) and
// nothing the resume skip-list suppressed.
func TestStreamTeeSeesEveryDeliveredBlock(t *testing.T) {
	const total = 60
	f := newMemFetcher(total, 0)
	var mu sync.Mutex
	teed := make(map[int64]int)
	blocks, h := Stream(context.Background(), f, CrawlConfig{
		Workers: 4, Buffer: 8,
		Tee: func(num int64, raw []byte) error {
			mu.Lock()
			teed[num]++
			mu.Unlock()
			if want := fmt.Sprintf(`{"num":%d}`, num); string(raw) != want {
				return fmt.Errorf("tee got %s for block %d", raw, num)
			}
			return nil
		},
	})
	delivered := 0
	for range blocks {
		delivered++
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if delivered != total || len(teed) != total {
		t.Fatalf("delivered %d, teed %d distinct, want %d", delivered, len(teed), total)
	}
	for num, n := range teed {
		if n != 1 {
			t.Fatalf("block %d teed %d times in an uninterrupted crawl", num, n)
		}
	}

	// A resumed crawl must not re-tee checkpointed blocks.
	cp := h.Checkpoint()
	cp.Frontier = 31 // pretend only [31, 60] was delivered
	cp.Extra = nil
	f2 := newMemFetcher(total, 0)
	var teed2 []int64
	blocks2, h2 := Stream(context.Background(), f2, CrawlConfig{
		Workers: 2, Resume: &cp,
		Tee: func(num int64, raw []byte) error {
			mu.Lock()
			teed2 = append(teed2, num)
			mu.Unlock()
			return nil
		},
	})
	for range blocks2 {
	}
	if _, err := h2.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, num := range teed2 {
		if num > 30 {
			t.Fatalf("resume teed checkpointed block %d", num)
		}
	}
	if len(teed2) != 30 {
		t.Fatalf("resume teed %d blocks, want the 30 below the frontier", len(teed2))
	}
}

// TestStreamTeeErrorAbortsCrawl: a failing tee (disk full, torn archive)
// must stop the whole crawl with its error, and the failing block must not
// be marked done — a resume has to refetch it so the archive can catch up.
func TestStreamTeeErrorAbortsCrawl(t *testing.T) {
	const total = 200
	f := newMemFetcher(total, 0)
	var calls int64
	blocks, h := Stream(context.Background(), f, CrawlConfig{
		Workers: 4, Buffer: 8,
		Tee: func(num int64, raw []byte) error {
			if atomic.AddInt64(&calls, 1) == 10 {
				return fmt.Errorf("disk full")
			}
			return nil
		},
	})
	for range blocks {
	}
	_, err := h.Wait()
	if err == nil {
		t.Fatal("crawl with a failing tee reported success")
	}
	if !errors.Is(err, ErrTee) {
		t.Fatalf("tee failure not marked ErrTee: %v", err)
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("tee failure cause not surfaced: %v", err)
	}
	if got := atomic.LoadInt64(&calls); got > total/2 {
		t.Fatalf("crawl kept fetching long after the tee failed (%d tee calls)", got)
	}
	cp := h.Checkpoint()
	if cp.Remaining() == 0 {
		t.Fatal("checkpoint claims completion although the tee aborted the crawl")
	}
}

// TestStreamTeeErrorAfterFetchError: a fetch error and a tee error racing
// to report must coexist — the error capture has to accept error values of
// different concrete types without panicking (atomic.Value would not).
func TestStreamTeeErrorAfterFetchError(t *testing.T) {
	const total = 100
	f := newMemFetcher(total, 0)
	f.fail = map[int64]bool{total: true} // newest block fails first
	var calls int64
	blocks, h := Stream(context.Background(), f, CrawlConfig{
		Workers: 2, Buffer: 4, MaxRetries: 1, Backoff: time.Microsecond,
		Tee: func(num int64, raw []byte) error {
			if atomic.AddInt64(&calls, 1) >= 20 {
				return fmt.Errorf("disk full")
			}
			return nil
		},
	})
	for range blocks {
	}
	if _, err := h.Wait(); err == nil {
		t.Fatal("crawl with fetch and tee failures reported success")
	}
}
