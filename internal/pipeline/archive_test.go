package pipeline

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/collect"
	"repro/internal/core"
)

// archiveTestOptions keeps the live-then-replay double run quick.
func archiveTestOptions(dir string) Options {
	opts := DefaultOptions()
	opts.EOS.Scale = 400_000
	opts.Tezos.Scale = 6_400
	opts.XRP.Scale = 80_000
	opts.Gov.Scale = 3_200
	opts.ArchiveDir = dir
	return opts
}

// TestPipelineArchiveReplayReproducesFigures is the acceptance path at the
// pipeline layer: a live run with ArchiveDir set tees every stage's raw
// blocks to disk, and a second run over the same directory replays from
// the archives — no endpoints, no probing — and renders byte-identical
// figures.
func TestPipelineArchiveReplayReproducesFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("double pipeline run")
	}
	dir := t.TempDir()
	opts := archiveTestOptions(dir)

	live, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"eos", "tezos", "xrp", "governance"} {
		rd, err := archive.Open(filepath.Join(dir, stage))
		if err != nil {
			t.Fatalf("stage %s archived nothing: %v", stage, err)
		}
		if rd.Blocks() == 0 {
			t.Fatalf("stage %s archive is empty", stage)
		}
	}
	if len(live.EndpointScores) == 0 {
		t.Fatal("live run probed no endpoints")
	}

	replay, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Replay skips serving and probing entirely; the archive is the
	// endpoint.
	if len(replay.EndpointScores) != 0 {
		t.Fatalf("replay run probed %d endpoints; it should not touch the network", len(replay.EndpointScores))
	}
	// The segment-walk replay accounts for each stage exactly as the live
	// crawl that wrote the archive did.
	for name, pair := range map[string][2]collect.CrawlResult{
		"eos":   {live.EOSCrawl, replay.EOSCrawl},
		"tezos": {live.TezosCrawl, replay.TezosCrawl},
		"xrp":   {live.XRPCrawl, replay.XRPCrawl},
	} {
		l, r := pair[0], pair[1]
		if l.Blocks == 0 || l.RawBytes == 0 || l.GzipBytes <= 0 {
			t.Errorf("%s live crawl accounted nothing: %+v", name, l)
		}
		if r.Blocks != l.Blocks || r.RawBytes != l.RawBytes || r.GzipBytes != l.GzipBytes {
			t.Errorf("%s replay accounting differs from live: blocks %d/%d raw bytes %d/%d gzip bytes %d/%d",
				name, r.Blocks, l.Blocks, r.RawBytes, l.RawBytes, r.GzipBytes, l.GzipBytes)
		}
	}

	// Figure-for-figure equality over everything derived from the block
	// stream (endpoint probing is legitimately absent from a replay).
	renderers := map[string]func(*Result) string{
		"Figure1":     Figure1,
		"Figure2":     Figure2,
		"Figure3":     Figure3,
		"Figure4":     Figure4,
		"Figure5":     Figure5,
		"Figure6":     Figure6,
		"Figure7":     Figure7,
		"Figure9":     Figure9,
		"HeadlineTPS": HeadlineTPS,
		"CaseStudies": CaseStudies,
	}
	for name, render := range renderers {
		if a, b := render(live), render(replay); a != b {
			t.Errorf("%s differs between live and replay:\n--- live ---\n%s\n--- replay ---\n%s", name, a, b)
		}
	}

	// The deterministic summaries the CI archive job diffs.
	for name, pair := range map[string][2]string{
		"eos":   {core.SummarizeEOS(live.EOS).Render(), core.SummarizeEOS(replay.EOS).Render()},
		"tezos": {core.SummarizeTezos(live.Tezos).Render(), core.SummarizeTezos(replay.Tezos).Render()},
		"xrp":   {core.SummarizeXRP(live.XRP).Render(), core.SummarizeXRP(replay.XRP).Render()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s summary differs:\n%s\nvs\n%s", name, pair[0], pair[1])
		}
	}
}

// TestPipelineArchiveRangeMismatchFails: an archive written under different
// scenario parameters must fail the stage loudly instead of replaying the
// wrong blocks.
func TestPipelineArchiveRangeMismatchFails(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run")
	}
	dir := t.TempDir()
	// Fabricate a "stale" EOS archive that cannot cover the stage's range.
	w, err := archive.NewWriter(archive.WriterConfig{Dir: filepath.Join(dir, "eos"), Chain: "eos"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte(`{"block_num":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	opts := archiveTestOptions(dir)
	opts.SkipGovernance = true
	_, err = Run(context.Background(), opts)
	if err == nil || !strings.Contains(err.Error(), "delete the archive") {
		t.Fatalf("stale archive not rejected: %v", err)
	}

	// A chain mismatch is rejected the same way. Fresh directory: the
	// cancelled run above legitimately finalized partial archives for the
	// stages that were in flight when the EOS stage failed.
	dir = t.TempDir()
	opts = archiveTestOptions(dir)
	opts.SkipGovernance = true
	w2, err := archive.NewWriter(archive.WriterConfig{Dir: filepath.Join(dir, "eos"), Chain: "tezos"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(1, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), opts)
	if err == nil || !strings.Contains(err.Error(), `holds chain "tezos"`) {
		t.Fatalf("chain mismatch not rejected: %v", err)
	}
}

// TestStageReplayV1ArchiveSizeUnknown: a v1 manifest records no
// comp_bytes, so a replay of it reports Figure 2's size as unknown ("-"),
// never as a partial or zero sum.
func TestStageReplayV1ArchiveSizeUnknown(t *testing.T) {
	dir := t.TempDir()
	w, err := archive.NewWriter(archive.WriterConfig{Dir: filepath.Join(dir, "eos"), Chain: "eos", SegmentBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	for num := int64(1); num <= 5; num++ {
		if err := w.Append(num, []byte(`{"block_num":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the manifest as the v1 writer laid it down.
	path := filepath.Join(dir, "eos", "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m archive.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m.Version = 1
	for i := range m.Segments {
		m.Segments[i].CompBytes = 0
	}
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	opts := archiveTestOptions(dir)
	ccfg := collect.CrawlConfig{From: 1, To: 5}
	src, cleanup, err := opts.stageCollect("eos", "eos", 1, 5, &ccfg, func() (collect.BlockFetcher, func(), error) {
		t.Fatal("full v1 archive still built a live fetcher")
		return nil, nil, nil
	})
	defer cleanup()
	if err != nil {
		t.Fatal(err)
	}
	if n := src.compressedBytes(); n != -1 {
		t.Fatalf("v1 replay compressed size = %d, want -1 (unknown)", n)
	}
	if cell := sizeCell(src.compressedBytes()); cell != "-" {
		t.Fatalf("unknown size renders as %q", cell)
	}
}
