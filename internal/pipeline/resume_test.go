package pipeline

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/eos"
	"repro/internal/rpcserve"
)

// resumeFixture is a small EOS chainsim behind a counting HTTP server.
type resumeFixture struct {
	srv *httptest.Server

	mu      sync.Mutex
	fetched map[int64]int
}

func newResumeFixture(t *testing.T, nBlocks int) *resumeFixture {
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

	f := &resumeFixture{fetched: make(map[int64]int)}
	inner := rpcserve.NewEOSServer(c)
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/get_block") {
			body, _ := io.ReadAll(r.Body)
			var req struct {
				Num json.Number `json:"block_num_or_id"`
			}
			json.Unmarshal(body, &req)
			num, _ := req.Num.Int64()
			f.mu.Lock()
			f.fetched[num]++
			f.mu.Unlock()
			r.Body = io.NopCloser(strings.NewReader(string(body)))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *resumeFixture) resetCounts() {
	f.mu.Lock()
	f.fetched = make(map[int64]int)
	f.mu.Unlock()
}

func (f *resumeFixture) hits(num int64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fetched[num]
}

// crawlFigures runs [from, to] through the given fetcher into a fresh kit
// and renders the figures.
func crawlFigures(t *testing.T, fetcher collect.BlockFetcher, ccfg collect.CrawlConfig) string {
	t.Helper()
	kit, err := core.NewStatsKit("eos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.IngestCrawl(context.Background(), fetcher, ccfg, kit.Decoder, core.IngestConfig{}); err != nil {
		t.Fatalf("crawl: %v", err)
	}
	return kit.Summarize().Render()
}

// TestStageCollectResumesPartialArchive: a stage archive holding only a
// suffix of the range — what a crash mid-crawl leaves, since segments
// commit to the manifest incrementally — is refused by default but, with
// ResumeArchives, resumed: archived blocks replay from storage (never
// refetched), missing blocks crawl live and extend the archive, figures
// match an all-live crawl, and the NEXT run replays entirely from the
// now-complete archive.
func TestStageCollectResumesPartialArchive(t *testing.T) {
	const total = 20
	fx := newResumeFixture(t, total)
	dir := t.TempDir()
	client := collect.NewEOSClient(fx.srv.URL)

	want := crawlFigures(t, client, collect.CrawlConfig{From: 1, To: total, Workers: 2})
	fx.resetCounts()

	// Seed the partial archive: blocks [11, 20] only, as if the teeing
	// crawl died halfway down its reverse-chronological pass.
	w, err := archive.NewWriter(archive.WriterConfig{Dir: blobstore.Join(dir, "eos"), Chain: "eos"})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(11); num <= total; num++ {
		raw, err := client.FetchBlock(context.Background(), num)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(num, raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fx.resetCounts()

	// Default: partial coverage is a loud error, never a silent recrawl.
	strict := DefaultOptions()
	strict.ArchiveDir = dir
	ccfg := collect.CrawlConfig{From: 1, To: total, Workers: 2}
	if _, cleanup, err := strict.stageCollect("eos", "eos", 1, total, &ccfg, func() (collect.BlockFetcher, func(), error) {
		return client, nil, nil
	}); err == nil || !strings.Contains(err.Error(), "delete the archive") {
		cleanup()
		t.Fatalf("partial archive without ResumeArchives: %v", err)
	}

	// Resume: archived blocks come from storage, the rest live.
	opts := strict
	opts.ResumeArchives = true
	ccfg = collect.CrawlConfig{From: 1, To: total, Workers: 2}
	src, cleanup, err := opts.stageCollect("eos", "eos", 1, total, &ccfg, func() (collect.BlockFetcher, func(), error) {
		return client, nil, nil
	})
	defer cleanup()
	if err != nil {
		t.Fatal(err)
	}
	got := crawlFigures(t, src.fetcher, ccfg)
	if err := src.sink.Close(); err != nil {
		t.Fatal(err)
	}
	resumedGzip := src.compressedBytes()
	if got != want {
		t.Errorf("resumed figures differ from all-live crawl\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	for num := int64(11); num <= total; num++ {
		if n := fx.hits(num); n != 0 {
			t.Errorf("resumed run refetched archived block %d (%d times)", num, n)
		}
	}
	for num := int64(1); num <= 10; num++ {
		if n := fx.hits(num); n != 1 {
			t.Errorf("missing block %d fetched %d times, want exactly once", num, n)
		}
	}

	// The archive now covers everything: the next run is a pure replay.
	fx.resetCounts()
	ccfg = collect.CrawlConfig{From: 1, To: total, Workers: 2}
	src, cleanup, err = opts.stageCollect("eos", "eos", 1, total, &ccfg, func() (collect.BlockFetcher, func(), error) {
		t.Fatal("full archive still built a live fetcher")
		return nil, nil, nil
	})
	defer cleanup()
	if err != nil {
		t.Fatal(err)
	}
	if src.sink != nil {
		t.Fatal("pure replay opened a write-through archive")
	}
	// Figure 2: the resume's reader + writer total is the replay's.
	if replayGzip := src.compressedBytes(); resumedGzip <= 0 || replayGzip != resumedGzip {
		t.Errorf("compressed size: resumed run %d, replay %d", resumedGzip, replayGzip)
	}
	if src.fetcher != nil {
		t.Fatal("pure replay built a fetcher; it should walk the archive's segments")
	}
	kit, err := core.NewStatsKit("eos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	res, err := src.crawl(context.Background(), ccfg, kit.Decoder, core.IngestConfig{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Blocks != total || res.GzipBytes != resumedGzip {
		t.Errorf("replay accounted %d blocks, %d compressed bytes; want %d, %d", res.Blocks, res.GzipBytes, total, resumedGzip)
	}
	if got := kit.Summarize().Render(); got != want {
		t.Errorf("replay figures differ from all-live crawl\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	fx.mu.Lock()
	live := len(fx.fetched)
	fx.mu.Unlock()
	if live != 0 {
		t.Errorf("pure replay still hit the network for %d blocks", live)
	}
}

// TestReplayReaderRefusesForeignBlocks: an archive whose blocks lie
// outside the stage's range (scale or seed changed since it was written)
// refuses loudly even in resume mode — resuming it would measure a
// different scenario.
func TestReplayReaderRefusesForeignBlocks(t *testing.T) {
	const total = 12
	fx := newResumeFixture(t, total)
	dir := t.TempDir()
	client := collect.NewEOSClient(fx.srv.URL)

	w, err := archive.NewWriter(archive.WriterConfig{Dir: blobstore.Join(dir, "eos"), Chain: "eos"})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(8); num <= total; num++ {
		raw, err := client.FetchBlock(context.Background(), num)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(num, raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	opts := DefaultOptions()
	opts.ArchiveDir = dir
	opts.ResumeArchives = true
	// The stage now wants [1, 10]: archived blocks 11 and 12 are from a
	// bigger scenario.
	if _, _, err := opts.replayReader("eos", "eos", 1, 10); err == nil || !strings.Contains(err.Error(), "delete the archive") {
		t.Fatalf("archive with out-of-range blocks resumed: %v", err)
	}
}
