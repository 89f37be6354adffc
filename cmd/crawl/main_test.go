package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/blobstore/s3stub"
	"repro/internal/chain"
	"repro/internal/cli"
	"repro/internal/collect"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/eos"
	"repro/internal/rpcserve"
)

// countingEOSServer serves an EOS chain and records every get_block number
// handed out, cancelling interrupt after the limit-th block — standing in
// for a SIGINT landing mid-crawl.
type countingEOSServer struct {
	srv       *httptest.Server
	mu        sync.Mutex
	fetched   map[int64]int
	served    int
	limit     int
	interrupt context.CancelFunc
}

func newCountingEOSServer(t *testing.T, nBlocks int) *countingEOSServer {
	t.Helper()
	c := eos.New(eos.DefaultConfig(1000))
	alice, bob := eos.MustName("alice"), eos.MustName("bob")
	for _, n := range []eos.Name{alice, bob} {
		if err := c.CreateAccount(n, eos.SystemAccount); err != nil {
			t.Fatal(err)
		}
		if err := c.Tokens().Transfer(eos.TokenAccount, eos.SystemAccount, n, chain.EOSAsset(1_000_0000)); err != nil {
			t.Fatal(err)
		}
		c.Resources().Stake(&c.GetAccount(n).Resources, 100_0000, 100_0000)
	}
	for i := 0; i < nBlocks; i++ {
		c.PushTransaction(eos.NewAction(eos.TokenAccount, eos.ActTransfer, alice, map[string]string{
			"from": "alice", "to": "bob", "quantity": "0.0001 EOS",
		}))
		c.ProduceBlock()
	}

	s := &countingEOSServer{fetched: make(map[int64]int)}
	inner := rpcserve.NewEOSServer(c)
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/get_block") {
			body, _ := io.ReadAll(r.Body)
			var req struct {
				Num json.Number `json:"block_num_or_id"`
			}
			json.Unmarshal(body, &req)
			num, _ := req.Num.Int64()
			s.mu.Lock()
			s.fetched[num]++
			s.served++
			if s.limit > 0 && s.served == s.limit && s.interrupt != nil {
				s.interrupt()
			}
			s.mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *countingEOSServer) reset() {
	s.mu.Lock()
	s.fetched = make(map[int64]int)
	s.served = 0
	s.limit = 0
	s.interrupt = nil
	s.mu.Unlock()
}

func (s *countingEOSServer) fetchedNums() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	nums := make([]int64, 0, len(s.fetched))
	for n := range s.fetched {
		nums = append(nums, n)
	}
	return nums
}

// TestCrawlInterruptResume is the command-level acceptance path: a crawl
// killed mid-flight writes its checkpoint, prints a partial summary, and
// the rerun skips every checkpointed block — the server never sees a
// request for a block the first run already delivered.
func TestCrawlInterruptResume(t *testing.T) {
	const total = 40
	s := newCountingEOSServer(t, total)
	ckpt := filepath.Join(t.TempDir(), "eos.ckpt")
	opts := crawlOpts{
		ArchiveFlags: cli.ArchiveFlags{From: 1},
		chain:        "eos", endpoint: s.srv.URL, checkpoint: ckpt,
		workers: 2, ingest: 2, batch: 4, buffer: 8,
	}

	// First run: the 15th served block triggers cancellation, as SIGINT
	// does through signal.NotifyContext in main.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.mu.Lock()
	s.limit, s.interrupt = 15, cancel
	s.mu.Unlock()
	var out1 bytes.Buffer
	if err := run(ctx, opts, &out1); err != nil {
		t.Fatalf("interrupted run returned error: %v\n%s", err, out1.String())
	}
	if !strings.Contains(out1.String(), "interrupted") {
		t.Fatalf("interrupted run printed no partial summary:\n%s", out1.String())
	}
	if !strings.Contains(out1.String(), "checkpoint:") {
		t.Fatalf("interrupted run saved no checkpoint:\n%s", out1.String())
	}

	cp, err := collect.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var done []int64
	for n := int64(1); n <= total; n++ {
		if cp.Done(n) {
			done = append(done, n)
		}
	}
	if len(done) == 0 {
		t.Fatal("checkpoint records nothing done after 15 served blocks")
	}
	if len(done) == total {
		t.Fatal("interrupted crawl completed everything — interruption never landed")
	}

	// Second run resumes to completion.
	s.reset()
	var out2 bytes.Buffer
	if err := run(context.Background(), opts, &out2); err != nil {
		t.Fatalf("resumed run failed: %v\n%s", err, out2.String())
	}
	for _, num := range s.fetchedNums() {
		if cp.Done(num) {
			t.Fatalf("resumed run refetched block %d, which the checkpoint records as done", num)
		}
	}
	if want := len(done); !strings.Contains(out2.String(), fmt.Sprintf("skipped:     %d", want)) {
		t.Fatalf("resumed run should report %d skipped blocks:\n%s", want, out2.String())
	}

	// The final checkpoint leaves nothing to do: a third run fetches zero.
	s.reset()
	var out3 bytes.Buffer
	if err := run(context.Background(), opts, &out3); err != nil {
		t.Fatal(err)
	}
	if nums := s.fetchedNums(); len(nums) != 0 {
		t.Fatalf("third run refetched %v after a complete checkpoint", nums)
	}
}

// TestCrawlInterruptWithoutCheckpointFails: with no -checkpoint there is
// nothing to resume from, so an interrupted run must report the lost
// progress as an error instead of exiting 0 with a resume hint.
func TestCrawlInterruptWithoutCheckpointFails(t *testing.T) {
	s := newCountingEOSServer(t, 40)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.mu.Lock()
	s.limit, s.interrupt = 10, cancel
	s.mu.Unlock()
	var out bytes.Buffer
	err := run(ctx, crawlOpts{ArchiveFlags: cli.ArchiveFlags{From: 1}, chain: "eos", endpoint: s.srv.URL, workers: 2, ingest: 1, batch: 4, buffer: 8}, &out)
	if err == nil {
		t.Fatalf("interrupted checkpoint-less run exited clean:\n%s", out.String())
	}
	if strings.Contains(out.String(), "rerun with the same -checkpoint") {
		t.Fatalf("checkpoint-less run suggests resuming from a checkpoint that was never written:\n%s", out.String())
	}
}

// TestCrawlFailedBeforeRangeWritesNoCheckpoint: a run that dies before the
// crawl range resolves (dead endpoint, or SIGINT beating head resolution)
// must not write the all-zero checkpoint that would fail validation and
// brick every later run against the same file.
func TestCrawlFailedBeforeRangeWritesNoCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "eos.ckpt")
	opts := crawlOpts{
		ArchiveFlags: cli.ArchiveFlags{From: 1},
		chain:        "eos", endpoint: "http://127.0.0.1:1", checkpoint: ckpt,
		workers: 1, ingest: 1, batch: 4, buffer: 8,
	}
	if err := run(context.Background(), opts, io.Discard); err == nil {
		t.Fatal("crawl against a dead endpoint succeeded")
	}
	if _, err := collect.LoadCheckpoint(ckpt); !os.IsNotExist(err) {
		t.Fatalf("dead-endpoint run left a checkpoint behind (load err: %v)", err)
	}

	// The same checkpoint path must still work for a later healthy run.
	s := newCountingEOSServer(t, 10)
	opts.endpoint = s.srv.URL
	var out bytes.Buffer
	if err := run(context.Background(), opts, &out); err != nil {
		t.Fatalf("healthy run after failed run: %v\n%s", err, out.String())
	}
	if cp, err := collect.LoadCheckpoint(ckpt); err != nil || cp.Remaining() != 0 {
		t.Fatalf("healthy run checkpoint: %+v, %v", cp, err)
	}
}

// TestCrawlArchiveReplayDeterminism: a crawl with -archive leaves a
// replayable archive whose offline replay renders the exact figures
// section the live crawl printed — the property the CI archive job diffs
// end to end with cmd/report -replay.
func TestCrawlArchiveReplayDeterminism(t *testing.T) {
	const total = 30
	s := newCountingEOSServer(t, total)
	arch := filepath.Join(t.TempDir(), "eos")
	var out bytes.Buffer
	err := run(context.Background(), crawlOpts{
		ArchiveFlags: cli.ArchiveFlags{Archive: arch, From: 1},
		chain:        "eos", endpoint: s.srv.URL,
		workers: 2, ingest: 2, batch: 4, buffer: 8,
	}, &out)
	if err != nil {
		t.Fatalf("archived crawl failed: %v\n%s", err, out.String())
	}
	idx := strings.Index(out.String(), "--- eos figures ---")
	if idx < 0 {
		t.Fatalf("live crawl printed no figures section:\n%s", out.String())
	}
	liveFigures := out.String()[idx:]

	// Replay from disk only: the server is never touched again.
	rd, err := archive.Open(arch)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Covers(1, total) {
		t.Fatalf("archive covers [%d, %d] of %d blocks", rd.From(), rd.To(), rd.Blocks())
	}
	// "gzip bytes" is what the archive holds: the manifest's comp_bytes.
	comp, ok := rd.CompressedBytes()
	if want := fmt.Sprintf("gzip bytes:  %d (", comp); !ok || !strings.Contains(out.String(), want) {
		t.Fatalf("live crawl output lacks %q:\n%s", want, out.String())
	}
	s.reset()
	kit, err := core.NewStatsKit("eos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.IngestCrawl(context.Background(), rd, collect.CrawlConfig{
		From: 1, To: total, Workers: 2,
	}, kit.Decoder, core.IngestConfig{}); err != nil {
		t.Fatal(err)
	}
	if replayFigures := kit.Summarize().Render(); replayFigures != liveFigures {
		t.Fatalf("replayed figures differ from live crawl:\n--- live ---\n%s\n--- replay ---\n%s", liveFigures, replayFigures)
	}
	if nums := s.fetchedNums(); len(nums) != 0 {
		t.Fatalf("replay hit the network for blocks %v", nums)
	}
}

// TestCrawlArchiveCrossBackendDeterminism: the same crawl archived to a
// bare directory path, a mem:// store and an S3-compatible stub produces
// byte-identical live figures, and each archive replays to those same
// bytes — the storage backend is invisible in every figure.
func TestCrawlArchiveCrossBackendDeterminism(t *testing.T) {
	const total = 30
	s := newCountingEOSServer(t, total)
	stub := s3stub.New()
	defer stub.Close()
	locations := map[string]string{
		"file": filepath.Join(t.TempDir(), "eos"),
		"mem":  "mem://crawl-xbackend/eos",
		"s3":   stub.URL("crawls", "eos"),
	}

	figures := make(map[string]string, len(locations))
	for backend, loc := range locations {
		s.reset()
		var out bytes.Buffer
		err := run(context.Background(), crawlOpts{
			ArchiveFlags: cli.ArchiveFlags{Archive: loc, From: 1},
			chain:        "eos", endpoint: s.srv.URL,
			workers: 2, ingest: 2, batch: 4, buffer: 8,
		}, &out)
		if err != nil {
			t.Fatalf("%s: archived crawl failed: %v\n%s", backend, err, out.String())
		}
		idx := strings.Index(out.String(), "--- eos figures ---")
		if idx < 0 {
			t.Fatalf("%s: live crawl printed no figures section:\n%s", backend, out.String())
		}
		figures[backend] = out.String()[idx:]
	}
	if figures["mem"] != figures["file"] || figures["s3"] != figures["file"] {
		t.Fatalf("live figures differ across backends:\n--- file ---\n%s\n--- mem ---\n%s\n--- s3 ---\n%s",
			figures["file"], figures["mem"], figures["s3"])
	}

	// Every backend's archive replays to the same bytes the live crawls
	// printed — and without touching the chain endpoint.
	s.reset()
	for backend, loc := range locations {
		rd, err := archive.Open(loc)
		if err != nil {
			t.Fatalf("%s: opening archive: %v", backend, err)
		}
		if !rd.Covers(1, total) {
			t.Fatalf("%s: archive covers [%d, %d] of %d blocks", backend, rd.From(), rd.To(), rd.Blocks())
		}
		kit, err := core.NewStatsKit("eos", chain.ObservationStart, 6*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := core.IngestCrawl(context.Background(), rd, collect.CrawlConfig{
			From: 1, To: total, Workers: 2,
		}, kit.Decoder, core.IngestConfig{}); err != nil {
			t.Fatalf("%s: replay: %v", backend, err)
		}
		if got := kit.Summarize().Render(); got != figures["file"] {
			t.Fatalf("%s: replayed figures differ from live:\n--- live ---\n%s\n--- replay ---\n%s", backend, figures["file"], got)
		}
	}
	if nums := s.fetchedNums(); len(nums) != 0 {
		t.Fatalf("replay hit the network for blocks %v", nums)
	}
}

// TestCrawlArchiveInterruptResume: an interrupted archived crawl keeps a
// consistent (un-torn) archive, and the resumed run extends it to full
// coverage — re-teed boundary blocks dedupe on replay.
func TestCrawlArchiveInterruptResume(t *testing.T) {
	const total = 40
	s := newCountingEOSServer(t, total)
	dir := t.TempDir()
	arch := filepath.Join(dir, "eos-archive")
	opts := crawlOpts{
		ArchiveFlags: cli.ArchiveFlags{Archive: arch, From: 1},
		chain:        "eos", endpoint: s.srv.URL,
		checkpoint: filepath.Join(dir, "eos.ckpt"),
		workers:    2, ingest: 2, batch: 4, buffer: 8,
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.mu.Lock()
	s.limit, s.interrupt = 15, cancel
	s.mu.Unlock()
	var out1 bytes.Buffer
	if err := run(ctx, opts, &out1); err != nil {
		t.Fatalf("interrupted run: %v\n%s", err, out1.String())
	}

	// The interrupted archive must open cleanly — whatever was finalized
	// is intact, nothing is torn.
	rd1, err := archive.Open(arch)
	if err != nil {
		t.Fatalf("interrupted archive is unreadable: %v", err)
	}
	if rd1.Blocks() == 0 {
		t.Fatal("interrupted archive holds nothing although blocks were delivered")
	}

	s.reset()
	var out2 bytes.Buffer
	if err := run(context.Background(), opts, &out2); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, out2.String())
	}
	rd2, err := archive.Open(arch)
	if err != nil {
		t.Fatal(err)
	}
	if !rd2.Covers(1, total) {
		t.Fatalf("resumed archive covers [%d, %d] with %d blocks, want all of [1, %d]",
			rd2.From(), rd2.To(), rd2.Blocks(), total)
	}
}

// TestCrawlUnknownChain keeps the flag validation honest.
func TestCrawlUnknownChain(t *testing.T) {
	if err := run(context.Background(), crawlOpts{chain: "doge", endpoint: "http://x"}, io.Discard); err == nil {
		t.Fatal("unknown chain accepted")
	}
}

// TestCrawlShardEmitMerge is the distributed-crawl acceptance path at unit
// scale: three -shard i/3 runs against the same server each emit their
// drained state to a shared mem:// store, cmd/merge's core path
// (LoadShards + MergeShards) folds them, and the merged figures are
// byte-identical to a single-process crawl over the whole range.
func TestCrawlShardEmitMerge(t *testing.T) {
	const total = 42
	s := newCountingEOSServer(t, total)

	// Baseline: one process crawls everything.
	var single bytes.Buffer
	err := run(context.Background(), crawlOpts{
		ArchiveFlags: cli.ArchiveFlags{From: 1},
		chain:        "eos", endpoint: s.srv.URL,
		workers: 2, ingest: 2, batch: 4, buffer: 8,
	}, &single)
	if err != nil {
		t.Fatalf("single crawl: %v\n%s", err, single.String())
	}
	idx := strings.Index(single.String(), "--- eos figures ---")
	if idx < 0 {
		t.Fatalf("single crawl printed no figures:\n%s", single.String())
	}
	want := single.String()[idx:]

	// Three shards, each a separate run; -to stays 0 so every shard
	// resolves head itself (the chain is no longer growing).
	const store = "mem://crawl-shard-emit"
	for i := 1; i <= 3; i++ {
		var shard cli.ShardSpec
		if err := shard.Set(fmt.Sprintf("%d/3", i)); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run(context.Background(), crawlOpts{
			ArchiveFlags: cli.ArchiveFlags{From: 1},
			chain:        "eos", endpoint: s.srv.URL,
			workers: 2, ingest: 2, batch: 4, buffer: 8,
			shard: shard, emitShard: store,
		}, &out)
		if err != nil {
			t.Fatalf("shard %d/3: %v\n%s", i, err, out.String())
		}
		if !strings.Contains(out.String(), "emitted:") {
			t.Fatalf("shard %d/3 emitted nothing:\n%s", i, out.String())
		}
	}

	shards, err := core.LoadShards(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("loaded %d shards, want 3", len(shards))
	}
	merged, err := core.MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Summary().Render(); got != want {
		t.Fatalf("3-way sharded crawl diverged from single process\n--- single ---\n%s\n--- merged ---\n%s", want, got)
	}
	if got, wantCov := merged.Covered(), (core.BlockRange{From: 1, To: total}); got != wantCov {
		t.Fatalf("merged covered %s, want %s", got, wantCov)
	}
}

// TestCrawlCheckpointEveryKillResumeEmit: the crash-recoverable shard path
// end to end — a crawl killed mid-slice resumes from the blob-store
// checkpoint, refetches nothing the checkpoint covers, and still emits a
// shard whose figures match an uninterrupted single-process crawl.
func TestCrawlCheckpointEveryKillResumeEmit(t *testing.T) {
	const total = 40
	s := newCountingEOSServer(t, total)

	// Oracle: one uninterrupted process over the whole range.
	var single bytes.Buffer
	if err := run(context.Background(), crawlOpts{
		ArchiveFlags: cli.ArchiveFlags{From: 1},
		chain:        "eos", endpoint: s.srv.URL,
		workers: 2, ingest: 2, batch: 4, buffer: 8,
	}, &single); err != nil {
		t.Fatalf("single crawl: %v\n%s", err, single.String())
	}
	idx := strings.Index(single.String(), "--- eos figures ---")
	if idx < 0 {
		t.Fatalf("single crawl printed no figures:\n%s", single.String())
	}
	want := single.String()[idx:]

	const store = "mem://crawl-ckpt-every"
	opts := crawlOpts{
		ArchiveFlags: cli.ArchiveFlags{From: 1, To: total},
		chain:        "eos", endpoint: s.srv.URL,
		workers: 2, ingest: 2, batch: 4, buffer: 8,
		emitShard: store, checkpointEvery: 8,
	}

	s.reset()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.mu.Lock()
	s.limit, s.interrupt = 18, cancel
	s.mu.Unlock()
	var out1 bytes.Buffer
	if err := run(ctx, opts, &out1); err == nil {
		t.Fatalf("interrupted run exited clean:\n%s", out1.String())
	}
	if !strings.Contains(out1.String(), "rerun with the same flags") {
		t.Fatalf("interrupted run printed no resume hint:\n%s", out1.String())
	}

	// The surviving checkpoint defines which blocks must never be refetched.
	st, err := blobstore.Resolve(store)
	if err != nil {
		t.Fatal(err)
	}
	ckptKey := coord.CheckpointKey("eos", 1, total)
	raw, err := st.Get(context.Background(), ckptKey)
	if err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}
	ck, err := core.DecodeShard(raw)
	if err != nil {
		t.Fatal(err)
	}
	cov := ck.Covered()
	if !cov.Known() || cov.To != total {
		t.Fatalf("checkpoint covers %s, want a suffix ending at %d", cov, total)
	}

	s.reset()
	var out2 bytes.Buffer
	if err := run(context.Background(), opts, &out2); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, out2.String())
	}
	for _, num := range s.fetchedNums() {
		if num >= cov.From && num <= cov.To {
			t.Errorf("resumed run refetched block %d inside checkpointed range %s", num, cov)
		}
	}
	if !strings.Contains(out2.String(), "resumed:") {
		t.Fatalf("resumed run did not report the checkpoint it picked up:\n%s", out2.String())
	}

	shards, err := core.LoadShards(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 {
		t.Fatalf("loaded %d shards, want 1", len(shards))
	}
	if got := shards[0].Summary().Render(); got != want {
		t.Fatalf("kill-resumed crawl diverged from single process\n--- single ---\n%s\n--- resumed ---\n%s", want, got)
	}
	// The emitted shard supersedes the checkpoint.
	if _, err := st.Get(context.Background(), ckptKey); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("checkpoint survived the shard emit (err %v)", err)
	}
}

// TestCrawlCheckpointEveryValidation: the flag combinations that would
// silently corrupt recovery are refused up front.
func TestCrawlCheckpointEveryValidation(t *testing.T) {
	cases := []struct {
		name, wantSub string
		mutate        func(*crawlOpts)
	}{
		{"without emit-shard", "requires -emit-shard", func(o *crawlOpts) {}},
		{"with checkpoint file", "incompatible with -checkpoint", func(o *crawlOpts) {
			o.emitShard, o.checkpoint = "mem://ckpt-every-val", "frontier.ckpt"
		}},
		{"with archive", "incompatible with -archive", func(o *crawlOpts) {
			o.emitShard, o.Archive = "mem://ckpt-every-val", "mem://ckpt-every-arch"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := crawlOpts{
				ArchiveFlags: cli.ArchiveFlags{From: 1, To: 5},
				chain:        "eos", endpoint: "http://127.0.0.1:1",
				workers: 1, ingest: 1, batch: 1, buffer: 1,
				checkpointEvery: 2,
			}
			tc.mutate(&o)
			err := run(context.Background(), o, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantSub)
			}
		})
	}
}

// TestCrawlEmitShardRefusesResume: a run that skipped blocks via a
// checkpoint did not fold them into its own aggregate, so emitting a shard
// claiming the whole range must refuse.
func TestCrawlEmitShardRefusesResume(t *testing.T) {
	const total = 30
	s := newCountingEOSServer(t, total)
	ckpt := filepath.Join(t.TempDir(), "eos.ckpt")
	opts := crawlOpts{
		ArchiveFlags: cli.ArchiveFlags{From: 1},
		chain:        "eos", endpoint: s.srv.URL, checkpoint: ckpt,
		workers: 2, ingest: 2, batch: 4, buffer: 8,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.mu.Lock()
	s.limit, s.interrupt = 10, cancel
	s.mu.Unlock()
	if err := run(ctx, opts, io.Discard); err != nil {
		t.Fatalf("interrupted run: %v", err)
	}

	s.reset()
	opts.emitShard = "mem://crawl-emit-resume"
	var out bytes.Buffer
	err := run(context.Background(), opts, &out)
	if err == nil || !strings.Contains(err.Error(), "refusing to emit") {
		t.Fatalf("resumed run emitted a shard (err %v):\n%s", err, out.String())
	}
	if _, lerr := core.LoadShards(context.Background(), opts.emitShard); lerr == nil {
		t.Fatal("a shard blob landed in the store despite the refusal")
	}
}
