// Package pipeline wires the full reproduction together: it builds the
// calibrated workloads, runs the three chain simulators over the
// observation window, serves their histories through the same network APIs
// the paper crawled (EOS HTTP RPC behind rate-limited endpoints, Tezos REST,
// XRP WebSocket plus the explorer's Data API), collects everything with the
// reverse-chronological crawler, and feeds the crawled wire data into the
// measurement aggregators.
//
// The stages are independent chain reproductions, so Run executes them as a
// stage graph under a bounded scheduler (see Stage and RunStages) rather
// than sequentially; per-stage wall-clocks surface in Result.StageMetrics.
package pipeline

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/explorer"
	"repro/internal/rpcserve"
	"repro/internal/workload"
	"repro/internal/xrp"
)

// StageOptions are the per-stage scenario knobs. Every chain reproduction
// carries its own scale divisor and seed so scenarios can be re-run or
// extended independently without touching the scheduler.
type StageOptions struct {
	// Scale is the scale divisor (the paper's shares and rankings are
	// scale-invariant; see DESIGN.md). Zero selects a fast default
	// suitable for tests.
	Scale int64
	// Seed makes the stage's workload deterministic. Zero selects the
	// default seed.
	Seed int64
}

// Options selects the per-stage scales, crawl parallelism and scheduling.
type Options struct {
	// EOS, Tezos, XRP and Gov configure the built-in stages.
	EOS, Tezos, XRP, Gov StageOptions

	// Workers sizes the crawl worker pool shared by every stage: it bounds
	// in-flight block fetches across all concurrent crawls.
	Workers int
	// Pool, when set, is the shared fetch pool the stages crawl through;
	// nil lets Run create one sized by Workers. Expose it when extra
	// stages built outside Run (e.g. EIDOSStressStage) should share the
	// same fetch budget instead of bringing their own.
	Pool *collect.Pool
	// Buffer is each stage's stream channel capacity: how many fetched
	// blocks may sit between crawl workers and the decode pool before the
	// fetch side blocks (backpressure).
	Buffer int
	// IngestWorkers sizes each stage's decode/ingest pool — decoding runs
	// off the crawl workers.
	IngestWorkers int
	// Batch is how many decoded blocks each ingest worker folds into its
	// aggregator per lock acquisition.
	Batch int
	// StageWorkers bounds how many stages run concurrently. Zero means
	// every ready stage runs in parallel; 1 reproduces the old sequential
	// pipeline.
	StageWorkers int
	// Bucket is the throughput time-series bucket (paper: 6 hours).
	Bucket time.Duration
	// EOSEndpoints is how many EOS endpoints to expose for probing; the
	// crawler shortlists the best EOSShortlist of them, as the paper
	// shortlisted 6 of 32.
	EOSEndpoints int
	EOSShortlist int
	// SkipGovernance disables the Babylon replay when only the main
	// window is needed.
	SkipGovernance bool

	// ArchiveDir makes the producer side of every stage durable. It may be
	// a plain directory path or a blob-store URL (file://, mem://,
	// s3://bucket/prefix?endpoint=..., null:// — see blobstore.Resolve).
	// When set, each stage keeps its raw block archive under a per-stage
	// sub-location (ArchiveDir/eos, …): a live crawl tees its stream into
	// a fresh archive as it fetches, and a rerun whose archive already
	// covers the stage's block range replays it from storage instead —
	// no endpoints served, no probing, zero fetcher network calls. An
	// archive that exists but does not cover the requested range (an
	// interrupted run, or a scale/seed change since it was written) fails
	// the stage with instructions to delete it, because silently mixing
	// archived blocks from different scenario parameters would corrupt
	// the measurement.
	ArchiveDir string

	// ResumeArchives makes a partial stage archive — what a run killed
	// mid-crawl leaves behind — a resume point instead of an error:
	// archived blocks replay from storage, only the missing ones are
	// fetched live (and appended), and the rerun still renders the full
	// figures while leaving complete archive coverage behind. An archive
	// holding blocks outside the stage's range (a scale or seed change)
	// stays a loud error either way.
	ResumeArchives bool

	// ExtraStages are appended to the built-in stage graph. They may
	// depend on built-in stage names ("eos", "tezos", "xrp",
	// "governance") via Stage.After. Note that SkipGovernance removes
	// the "governance" stage from the graph, so depending on it then is
	// a graph-validation error.
	ExtraStages []Stage

	// Serve, when set, turns every measurement stage into a serving feed:
	// the stage registers its aggregator's summarize hook before crawling
	// and releases it (marking the chain drained) when the crawl returns,
	// and its ingest path merges worker shards periodically instead of
	// only at drain, so the sink can snapshot mid-crawl figures. The
	// serving layer's Publisher (internal/serve) implements this.
	Serve SummarySink
}

// SummarySink is the serving layer's registration surface, kept as a local
// interface so the pipeline does not depend on internal/serve. Register
// adds a named chain feed anchored at the given aggregation window and
// returns an idempotent release function that marks the feed drained (its
// figures final). The sink may reject a duplicate chain name, and must
// reject one whose window differs from the first registration.
type SummarySink interface {
	Register(chain string, w core.Window, summarize func() core.ChainSummary) (release func(), err error)
}

// DefaultOptions returns bench-friendly scales. The decode/ingest pool
// scales with the CPU count (floor 2): since the aggregators went
// mergeable-sharded the decode workers never contend on a lock, so on
// multicore the stages get real CPU parallelism out of the box while the
// single-CPU reference container keeps its old sizing.
func DefaultOptions() Options {
	ingest := runtime.GOMAXPROCS(0)
	if ingest < 2 {
		ingest = 2
	}
	return Options{
		EOS:           StageOptions{Scale: 50_000, Seed: 1},
		Tezos:         StageOptions{Scale: 800, Seed: 1},
		XRP:           StageOptions{Scale: 20_000, Seed: 1},
		Gov:           StageOptions{Scale: 400, Seed: 1},
		Workers:       4,
		Buffer:        64,
		IngestWorkers: ingest,
		Batch:         16,
		Bucket:        6 * time.Hour,
		EOSEndpoints:  8,
		EOSShortlist:  3,
	}
}

func (o Options) withDefaults() Options {
	def := DefaultOptions()
	norm := func(s, d StageOptions) StageOptions {
		if s.Scale <= 0 {
			s.Scale = d.Scale
		}
		if s.Seed == 0 {
			s.Seed = d.Seed
		}
		return s
	}
	o.EOS = norm(o.EOS, def.EOS)
	o.Tezos = norm(o.Tezos, def.Tezos)
	o.XRP = norm(o.XRP, def.XRP)
	o.Gov = norm(o.Gov, def.Gov)
	if o.Workers <= 0 {
		o.Workers = def.Workers
	}
	if o.Buffer <= 0 {
		o.Buffer = def.Buffer
	}
	if o.IngestWorkers <= 0 {
		o.IngestWorkers = def.IngestWorkers
	}
	if o.Batch <= 0 {
		o.Batch = def.Batch
	}
	if o.Bucket <= 0 {
		o.Bucket = def.Bucket
	}
	if o.EOSEndpoints <= 0 {
		o.EOSEndpoints = def.EOSEndpoints
	}
	if o.EOSShortlist <= 0 {
		o.EOSShortlist = def.EOSShortlist
	}
	return o
}

// Result carries every aggregate the report renderers need.
type Result struct {
	Opts Options

	EOS   *core.EOSAggregator
	Tezos *core.TezosAggregator
	Gov   *core.TezosAggregator
	XRP   *core.XRPAggregator

	Dir *explorer.Directory

	EOSCrawl, TezosCrawl, XRPCrawl collect.CrawlResult

	// EndpointScores are the probe results behind the EOS shortlist.
	EndpointScores []collect.EndpointScore
	Shortlisted    []collect.EndpointScore

	// XRPScenario exposes actor addresses for case-study lookups.
	XRPScenario *workload.XRPScenario
	// EOSScenario exposes the EOS chain for case-study lookups.
	EOSScenario *workload.EOSScenario

	// StageMetrics records each stage's wall-clock, crawl volume and
	// pipeline-side TPS, ordered like the stage graph.
	StageMetrics []StageMetric
}

// ClusterFunc returns the Figure 12 clustering function backed by the
// explorer directory.
func (r *Result) ClusterFunc() core.ClusterFunc {
	return func(addr string) string { return r.Dir.ClusterName(xrp.Address(addr)) }
}

// Run executes the whole reproduction as a stage graph: the EOS, Tezos,
// XRP and governance stages run concurrently (bounded by
// Options.StageWorkers) over a shared crawl worker pool. The first stage
// failure cancels the others and is returned.
func Run(ctx context.Context, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{Opts: opts}
	pool := opts.Pool
	if pool == nil {
		pool = collect.NewPool(opts.Workers)
	}

	stages := []Stage{
		{Name: "eos", Run: func(ctx context.Context) (StageStats, error) {
			return res.runEOS(ctx, opts, pool)
		}},
		{Name: "tezos", Run: func(ctx context.Context) (StageStats, error) {
			return res.runTezos(ctx, opts, pool)
		}},
		{Name: "xrp", Run: func(ctx context.Context) (StageStats, error) {
			return res.runXRP(ctx, opts, pool)
		}},
	}
	if !opts.SkipGovernance {
		stages = append(stages, Stage{Name: "governance", Run: func(ctx context.Context) (StageStats, error) {
			return res.runGovernance(ctx, opts, pool)
		}})
	}
	stages = append(stages, opts.ExtraStages...)

	metrics, err := RunStages(ctx, stages, opts.StageWorkers)
	res.StageMetrics = metrics
	if err != nil {
		return nil, err
	}
	return res, nil
}

// crawlInto runs one stage's collection→measurement path on the streaming
// API: collect.Stream fetches raw blocks into a bounded channel and
// core.IngestStream decodes and batch-ingests them off the crawl workers
// (see core.IngestCrawl for the wiring).
func crawlInto(ctx context.Context, f collect.BlockFetcher, ccfg collect.CrawlConfig, dec core.Decoder, icfg core.IngestConfig) (collect.CrawlResult, error) {
	res, _, err := core.IngestCrawl(ctx, f, ccfg, dec, icfg)
	return res, err
}

// ingestConfig derives each stage's decode/ingest pool sizing from the
// pipeline options.
func (o Options) ingestConfig() core.IngestConfig {
	return core.IngestConfig{Workers: o.IngestWorkers, Batch: o.Batch}
}

// serveFeed wires one stage into the serving sink (when configured):
// registers the summarize hook under the stage's chain name and returns
// the stage's ingest config with periodic shard merges, so the sink's
// snapshots see the crawl in epoch-sized increments. Without a sink the
// config merges only at drain and the release is a no-op.
func (o Options) serveFeed(name string, w core.Window, summarize func() core.ChainSummary) (core.IngestConfig, func(), error) {
	icfg := o.ingestConfig()
	if o.Serve == nil {
		return icfg, func() {}, nil
	}
	release, err := o.Serve.Register(name, w, summarize)
	if err != nil {
		return icfg, nil, err
	}
	icfg.MergeEvery = core.SnapshotMergeEvery
	return icfg, release, nil
}

// serve starts an HTTP server on a loopback port and returns its base URL
// and a shutdown function.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: rpcserve.ReadHeaderTimeout,
		MaxHeaderBytes:    rpcserve.MaxHeaderBytes,
	}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

func (r *Result) runEOS(ctx context.Context, opts Options, pool *collect.Pool) (StageStats, error) {
	scenario, err := workload.BuildEOS(workload.EOSOptions{Scale: opts.EOS.Scale, Seed: opts.EOS.Seed})
	if err != nil {
		return StageStats{}, err
	}
	scenario.Run()
	r.EOSScenario = scenario
	to := int64(scenario.Chain.HeadNum())

	ccfg := collect.CrawlConfig{
		From: 1, To: to,
		Workers: opts.Workers, Pool: pool, Buffer: opts.Buffer,
		MaxRetries: 8, Backoff: 5 * time.Millisecond,
	}
	src, cleanup, err := opts.stageCollect("eos", "eos", 1, to, &ccfg, func() (collect.BlockFetcher, func(), error) {
		// Live crawl: expose several endpoints with varying generosity,
		// probe them, and crawl through the shortlist — the paper's §3.1
		// methodology. A replay skips all of it: the archive is the
		// endpoint.
		handler := rpcserve.NewEOSServer(scenario.Chain)
		profiles := make([]rpcserve.EndpointProfile, opts.EOSEndpoints)
		for i := range profiles {
			switch i % 4 {
			case 0: // generous
				profiles[i] = rpcserve.EndpointProfile{}
			case 1:
				profiles[i] = rpcserve.EndpointProfile{RatePerSec: 5000, Burst: 500}
			case 2: // stingy rate limit
				profiles[i] = rpcserve.EndpointProfile{RatePerSec: 20, Burst: 5}
			default: // slow
				profiles[i] = rpcserve.EndpointProfile{Latency: 5 * time.Millisecond}
			}
		}
		var stops []func()
		stopAll := func() {
			for _, stop := range stops {
				stop()
			}
		}
		urls := make([]string, 0, len(profiles))
		for _, p := range profiles {
			url, stop, err := serve(p.Middleware(handler))
			if err != nil {
				return nil, stopAll, err
			}
			stops = append(stops, stop)
			urls = append(urls, url)
		}
		for _, u := range urls {
			r.EndpointScores = append(r.EndpointScores, collect.ProbeEndpoint(ctx, u, collect.NewEOSClient(u), 6))
		}
		r.Shortlisted = collect.Shortlist(r.EndpointScores, opts.EOSShortlist)
		fetchers := make([]collect.BlockFetcher, 0, len(r.Shortlisted))
		for _, s := range r.Shortlisted {
			fetchers = append(fetchers, collect.NewEOSClient(s.URL))
		}
		if len(fetchers) == 0 {
			return nil, stopAll, fmt.Errorf("no EOS endpoints survived probing")
		}
		return &collect.MultiFetcher{Fetchers: fetchers}, stopAll, nil
	})
	defer cleanup()
	if err != nil {
		return StageStats{}, err
	}

	agg := core.NewEOSAggregator(chain.ObservationStart, opts.Bucket)
	icfg, releaseFeed, err := opts.serveFeed("eos", core.Window{Origin: chain.ObservationStart, Bucket: opts.Bucket},
		func() core.ChainSummary { return core.SummarizeEOS(agg) })
	if err != nil {
		return StageStats{}, err
	}
	defer releaseFeed()
	crawl, err := src.crawl(ctx, ccfg, agg.Decoder(), icfg)
	if err != nil {
		return StageStats{}, err
	}
	r.EOS = agg
	r.EOSCrawl = crawl
	return StageStats{Blocks: crawl.Blocks, Transactions: agg.Transactions}, nil
}

func (r *Result) runTezos(ctx context.Context, opts Options, pool *collect.Pool) (StageStats, error) {
	scenario, err := workload.BuildTezos(workload.TezosOptions{Scale: opts.Tezos.Scale, Seed: opts.Tezos.Seed})
	if err != nil {
		return StageStats{}, err
	}
	if _, err := scenario.Run(); err != nil {
		return StageStats{}, err
	}
	to := scenario.Chain.HeadLevel()

	ccfg := collect.CrawlConfig{
		From: 1, To: to,
		Workers: opts.Workers, Pool: pool, Buffer: opts.Buffer,
	}
	src, cleanup, err := opts.stageCollect("tezos", "tezos", 1, to, &ccfg, func() (collect.BlockFetcher, func(), error) {
		url, stop, err := serve(rpcserve.NewTezosServer(scenario.Chain))
		if err != nil {
			return nil, nil, err
		}
		return collect.NewTezosClient(url), stop, nil
	})
	defer cleanup()
	if err != nil {
		return StageStats{}, err
	}

	agg := core.NewTezosAggregator(chain.ObservationStart, opts.Bucket)
	icfg, releaseFeed, err := opts.serveFeed("tezos", core.Window{Origin: chain.ObservationStart, Bucket: opts.Bucket},
		func() core.ChainSummary { return core.SummarizeTezos(agg) })
	if err != nil {
		return StageStats{}, err
	}
	defer releaseFeed()
	crawl, err := src.crawl(ctx, ccfg, agg.Decoder(), icfg)
	if err != nil {
		return StageStats{}, err
	}
	r.Tezos = agg
	r.TezosCrawl = crawl
	return StageStats{Blocks: crawl.Blocks, Transactions: agg.Operations}, nil
}

func (r *Result) runGovernance(ctx context.Context, opts Options, pool *collect.Pool) (StageStats, error) {
	g, err := workload.BuildTezosGovernance(workload.GovernanceOptions{Scale: opts.Gov.Scale, Seed: opts.Gov.Seed})
	if err != nil {
		return StageStats{}, err
	}
	if _, err := g.Run(); err != nil {
		return StageStats{}, err
	}
	to := g.Chain.HeadLevel()

	ccfg := collect.CrawlConfig{
		From: 1, To: to,
		Workers: opts.Workers, Pool: pool, Buffer: opts.Buffer,
	}
	src, cleanup, err := opts.stageCollect("governance", "tezos", 1, to, &ccfg, func() (collect.BlockFetcher, func(), error) {
		url, stop, err := serve(rpcserve.NewTezosServer(g.Chain))
		if err != nil {
			return nil, nil, err
		}
		return collect.NewTezosClient(url), stop, nil
	})
	defer cleanup()
	if err != nil {
		return StageStats{}, err
	}

	// The governance replay starts in July; anchor its series there. Its
	// window legitimately differs from the 6h chains — the sink's window
	// validation is per chain name, so this registers cleanly.
	govWindow := core.Window{Origin: time.Date(2019, time.July, 17, 0, 0, 0, 0, time.UTC), Bucket: 24 * time.Hour}
	agg := core.NewTezosAggregator(govWindow.Origin, govWindow.Bucket)
	icfg, releaseFeed, err := opts.serveFeed("governance", govWindow,
		func() core.ChainSummary { return core.SummarizeTezos(agg) })
	if err != nil {
		return StageStats{}, err
	}
	defer releaseFeed()
	crawl, err := src.crawl(ctx, ccfg, agg.Decoder(), icfg)
	if err != nil {
		return StageStats{}, err
	}
	r.Gov = agg
	return StageStats{Blocks: crawl.Blocks, Transactions: agg.Operations}, nil
}

func (r *Result) runXRP(ctx context.Context, opts Options, pool *collect.Pool) (StageStats, error) {
	scenario, err := workload.BuildXRP(workload.XRPOptions{Scale: opts.XRP.Scale, Seed: opts.XRP.Seed})
	if err != nil {
		return StageStats{}, err
	}
	scenario.Run()
	r.XRPScenario = scenario
	// The build phase's ledgers stand in for pre-window history (gateway
	// issuance, trust lines); the paper's window starts at October 1, so
	// the crawl does too.
	from, to := scenario.SetupLedgers+1, scenario.State.HeadIndex()

	// The explorer (XRP Scan + Data API): usernames and trade records. It
	// serves even on replay — exchange records come from the Data API, not
	// the crawled ledger stream.
	dir := explorer.NewDirectory(scenario.State)
	for addr, username := range scenario.Usernames {
		dir.Register(addr, username)
	}
	oracle := explorer.NewRateOracle(scenario.State)
	exURL, stopEx, err := serve(explorer.NewServer(dir, oracle))
	if err != nil {
		return StageStats{}, err
	}
	defer stopEx()
	r.Dir = dir

	ccfg := collect.CrawlConfig{
		From: from, To: to,
		Workers: opts.Workers,
		Pool:    pool,
		Buffer:  opts.Buffer,
	}
	src, cleanup, err := opts.stageCollect("xrp", "xrp", from, to, &ccfg, func() (collect.BlockFetcher, func(), error) {
		// The ledger API over WebSocket.
		wsURL, stopWS, err := serve(rpcserve.NewXRPServer(scenario.State))
		if err != nil {
			return nil, nil, err
		}
		wsURL = "ws" + strings.TrimPrefix(wsURL, "http")
		client := collect.NewXRPClient(wsURL)
		ccfg.Workers = 1 // the WebSocket protocol is sequential per connection
		return client, func() { client.Close(); stopWS() }, nil
	})
	defer cleanup()
	if err != nil {
		return StageStats{}, err
	}

	agg := core.NewXRPAggregator(chain.ObservationStart, opts.Bucket)
	icfg, releaseFeed, err := opts.serveFeed("xrp", core.Window{Origin: chain.ObservationStart, Bucket: opts.Bucket},
		func() core.ChainSummary { return core.SummarizeXRP(agg) })
	if err != nil {
		return StageStats{}, err
	}
	defer releaseFeed()
	crawl, err := src.crawl(ctx, ccfg, agg.Decoder(), icfg)
	if err != nil {
		return StageStats{}, err
	}
	// Pull trade records from the Data API, as the paper did for rates.
	exchanges, err := explorer.FetchExchanges(exURL)
	if err != nil {
		return StageStats{}, err
	}
	agg.AddExchanges(exchanges)
	r.XRP = agg
	r.XRPCrawl = crawl
	return StageStats{Blocks: crawl.Blocks, Transactions: agg.Transactions}, nil
}
