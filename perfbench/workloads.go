package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/collect"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/serve"
)

// workloadNames lists the workloads in BENCHMARK.json's order.
var workloadNames = []string{"crawl", "replay", "coordinate", "serve"}

// runner runs one workload iteration at a time over a setup env. When tr
// is set the iteration runs traced: every layer is reached through the
// wrappers in trace.go; otherwise the program's own objects are passed in
// directly.
type runner struct {
	cfg Config
	env *env
	tr  *tracer
	// storeHook, when set, wraps every blob store a workload uses (tests
	// inject blobstore.Faulty here).
	storeHook func(blobstore.Store) blobstore.Store
	// stopClock ends the iteration's measured phase. measure sets it and
	// calls it when the workload returns; a workload whose verified
	// figures come before its last step (serve) calls it earlier.
	stopClock func()
}

// iterResult is what one iteration attempted, failed and verified.
type iterResult struct {
	attempted, failed int64
	// mismatch names the first output that differed from the reference.
	mismatch string
	// Serve only: per-query latency from when each query was due, how late
	// the generator ran at worst, how many queries it sent while the feeds
	// ingested, and the last snapshot epoch.
	latencies     []time.Duration
	lateMax       time.Duration
	ingestQueries int64
	epochs        uint64
}

func (r *iterResult) check(what, got, want string) {
	if got != want && r.mismatch == "" {
		r.mismatch = fmt.Sprintf("%s differs from the reference figures:\n--- got\n%s--- want\n%s", what, got, want)
	}
}

func (r *runner) run(ctx context.Context, name string) (iterResult, error) {
	switch name {
	case "crawl":
		return r.crawl(ctx)
	case "replay":
		return r.replay(ctx)
	case "coordinate":
		return r.coordinate(ctx)
	case "serve":
		return r.serve(ctx)
	}
	return iterResult{}, fmt.Errorf("unknown workload %q", name)
}

// endpoint returns the chain's endpoint for this iteration.
func (r *runner) endpoint(c *chainEnv) string {
	if r.tr != nil {
		return c.tracedURL
	}
	return c.url
}

func (r *runner) fetcher(c *chainEnv, parent uint64) collect.BlockFetcher {
	f := newClient(c.name, r.endpoint(c))
	if r.tr == nil {
		return f
	}
	return &tracedFetcher{inner: f, t: r.tr, parent: parent}
}

func (r *runner) decoder(d core.Decoder, parent uint64) core.Decoder {
	if r.tr == nil {
		return d
	}
	return newTracedDecoder(d, r.tr, parent)
}

func (r *runner) store(st blobstore.Store, parent uint64) blobstore.Store {
	if r.storeHook != nil {
		st = r.storeHook(st)
	}
	if r.tr == nil {
		return st
	}
	return &tracedStore{inner: st, t: r.tr, parent: parent}
}

func (r *runner) fetchWorkers(c *chainEnv) int {
	if c.name == "xrp" {
		return 1 // the WebSocket protocol is sequential per connection
	}
	return r.cfg.FetchWorkers
}

func (r *runner) ingestConfig() core.IngestConfig {
	return core.IngestConfig{Workers: r.cfg.IngestWorkers, Batch: r.cfg.Batch}
}

// render summarizes and renders a kit's figures.
func (r *runner) render(parent uint64, summarize func() core.ChainSummary) string {
	var sum core.ChainSummary
	r.tr.timed(parent, "core.summarize", func() { sum = summarize() })
	var out string
	r.tr.timed(parent, "core.render", func() { out = sum.Render() })
	return out
}

// crawl crawls each chain in turn through core.IngestCrawl, teeing every
// block into a fresh mem:// archive, as cmd/crawl -archive does.
func (r *runner) crawl(ctx context.Context) (iterResult, error) {
	var res iterResult
	for _, c := range r.env.chains {
		if err := r.crawlChain(ctx, c, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

func (r *runner) crawlChain(ctx context.Context, c *chainEnv, res *iterResult) error {
	phase := r.tr.begin(r.tr.rootID(), "crawl."+c.name)
	defer phase.end(0)
	ctx = withParent(ctx, phase.id())
	mem := blobstore.OpenMemory("perfbench/crawl/" + c.name)
	clearStore(mem)
	defer clearStore(mem)
	kit, err := newKit(c.name)
	if err != nil {
		return err
	}
	sink, err := archive.NewWriter(archive.WriterConfig{Dir: mem.URL(), Store: r.store(mem, phase.id()), Chain: c.name})
	if err != nil {
		return err
	}
	f := r.fetcher(c, phase.id())
	defer closeClient(f)
	ccfg := collect.CrawlConfig{From: c.from, To: c.to, Workers: r.fetchWorkers(c), Buffer: r.cfg.Buffer, Tee: sink.Append}
	if r.tr != nil {
		ccfg.Tee = tracedTee(r.tr, phase.id(), sink.Append)
	}
	cres, _, err := core.IngestCrawl(ctx, f, ccfg, r.decoder(kit.Decoder, phase.id()), r.ingestConfig())
	r.tr.timed(phase.id(), "archive.close", func() { err = errors.Join(err, sink.Close()) })
	r.tr.add("stats.gzip_in_bytes", float64(cres.RawBytes))
	r.tr.add("stats.gzip_out_bytes", float64(cres.GzipBytes))
	r.tr.add("collect.retries", float64(cres.Retries))
	r.tr.add("collect.failed", float64(cres.Failed))
	r.tr.add("collect.blocks", float64(cres.Blocks))
	r.tr.add("archive.segments", float64(sink.Segments()))
	res.attempted += c.blocks()
	if err != nil || cres.Blocks != c.blocks() {
		res.failed += c.blocks() - min(cres.Blocks, c.blocks())
		if err == nil {
			err = fmt.Errorf("crawled %d of %d blocks", cres.Blocks, c.blocks())
		}
		res.check("crawl "+c.name, err.Error(), c.figures)
		return nil
	}
	res.check("crawl "+c.name, r.render(phase.id(), kit.Summarize), c.figures)
	return nil
}

// openArchive opens a chain's setup archive with full verification, as
// cmd/report -replay does.
func (r *runner) openArchive(c *chainEnv, parent uint64) (*archive.Reader, error) {
	var rd *archive.Reader
	var err error
	r.tr.timed(parent, "archive.open", func() {
		rd, err = archive.OpenWith("", archive.OpenOptions{Workers: r.cfg.IngestWorkers, Store: r.store(c.archive, parent)})
	})
	if err == nil {
		r.tr.add("archive.segments", float64(rd.Segments()))
	}
	return rd, err
}

// replay replays each chain's setup archive in turn through
// core.IngestArchive, as cmd/report -replay does.
func (r *runner) replay(ctx context.Context) (iterResult, error) {
	var res iterResult
	for _, c := range r.env.chains {
		phase := r.tr.begin(r.tr.rootID(), "replay."+c.name)
		res.attempted += c.blocks()
		n, figures, err := r.replayChain(ctx, c, phase.id())
		phase.end(0)
		if err != nil || n != c.blocks() {
			res.failed += c.blocks() - min(max(n, 0), c.blocks())
			if err == nil {
				err = fmt.Errorf("replayed %d of %d blocks", n, c.blocks())
			}
			figures = err.Error()
		}
		res.check("replay "+c.name, figures, c.figures)
	}
	return res, nil
}

func (r *runner) replayChain(ctx context.Context, c *chainEnv, parent uint64) (int64, string, error) {
	rd, err := r.openArchive(c, parent)
	if err != nil {
		return 0, "", err
	}
	kit, err := newKit(rd.Chain())
	if err != nil {
		return 0, "", err
	}
	var n int64
	r.tr.timed(parent, "core.ingest_archive", func() {
		n, err = core.IngestArchive(ctx, rd, r.decoder(kit.Decoder, parent), r.ingestConfig())
	})
	if err != nil {
		return n, "", err
	}
	return n, r.render(parent, kit.Summarize), nil
}

// coordinate runs coord.Run for each chain in turn over a fresh mem://
// store, with shard workers running in-process through
// coord.RunShardCrawl, as cmd/coordinate's workers do.
func (r *runner) coordinate(ctx context.Context) (iterResult, error) {
	var res iterResult
	for _, c := range r.env.chains {
		r.coordinateChain(ctx, c, &res)
	}
	return res, nil
}

func (r *runner) coordinateChain(ctx context.Context, c *chainEnv, res *iterResult) {
	cc := r.cfg.Coordinate
	run := r.tr.begin(r.tr.rootID(), "coord.run")
	defer run.end(0)
	ctx = withParent(ctx, run.id())
	mem := blobstore.OpenMemory("perfbench/coordinate/" + c.name)
	clearStore(mem)
	defer clearStore(mem)
	store := r.store(mem, run.id())
	cfg := coord.Config{
		Chain: c.name, From: c.from, To: c.to,
		Shards:   cc.Slices,
		Store:    store,
		Owner:    "perfbench",
		Parallel: cc.Parallel,
		Run: func(ctx context.Context, t coord.Task) error {
			w := r.tr.begin(parentOf(ctx, 0), "coord.worker")
			defer w.end(0)
			return r.shardWorker(withParent(ctx, w.id()), c, store, t, w.id())
		},
	}
	cres, err := coord.Run(ctx, cfg)
	res.attempted += int64(cc.Slices)
	if cres == nil {
		res.failed += int64(cc.Slices)
		res.check("coordinate "+c.name, err.Error(), c.figures)
		return
	}
	r.tr.add("coord.tasks", float64(len(cres.Tasks)))
	r.tr.add("coord.completed", float64(len(cres.Completed)))
	res.failed += int64(len(cres.Failed))
	if err != nil || cres.Merged == nil {
		if err == nil {
			err = fmt.Errorf("no merged shards")
		}
		res.check("coordinate "+c.name, err.Error(), c.figures)
		return
	}
	res.check("coordinate "+c.name, r.render(run.id(), cres.Merged.Summary), c.figures)
}

// shardWorker is one in-process worker attempt for a coordinator task.
func (r *runner) shardWorker(ctx context.Context, c *chainEnv, store blobstore.Store, t coord.Task, parent uint64) error {
	cc := r.cfg.Coordinate
	kit, err := newKit(c.name)
	if err != nil {
		return err
	}
	f := r.fetcher(c, parent)
	defer closeClient(f)
	kit.Decoder = r.decoder(kit.Decoder, parent)
	out, err := coord.RunShardCrawl(ctx, coord.CrawlerConfig{
		Kit: kit, Fetcher: f, From: t.From, To: t.To,
		Store: store, CheckpointEvery: cc.CheckpointEvery,
		Workers: r.fetchWorkers(c), Ingest: r.cfg.IngestWorkers, Batch: r.cfg.Batch, Buffer: r.cfg.Buffer,
		MaxRetries: cc.FetchRetries, Backoff: time.Duration(cc.FetchBackoffMs) * time.Millisecond,
		Fence: t.Fence,
	})
	r.tr.add("collect.retries", float64(out.Retries))
	r.tr.add("collect.blocks", float64(out.Blocks))
	return err
}

// serve feeds the setup archives into a fresh serve.Publisher while an
// open-loop generator queries its HTTP API, as cmd/serve -replay does, and
// checks the drained /v1/figures against the reference.
func (r *runner) serve(ctx context.Context) (iterResult, error) {
	var res iterResult
	sc := r.cfg.Serve
	root := r.tr.rootID()
	pub := serve.NewPublisher()
	var h http.Handler = serve.NewHandler(pub)
	if r.tr != nil {
		h = &tracedHandler{inner: h, t: r.tr, name: "serve.request"}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer startServer(ln, h)()
	base := "http://" + ln.Addr().String()

	readers := make([]*archive.Reader, len(r.env.chains))
	for i, c := range r.env.chains {
		if readers[i], err = r.openArchive(c, root); err != nil {
			return res, err
		}
	}
	pctx, stopPub := context.WithCancel(ctx)
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		pub.Run(pctx, sc.publishInterval())
	}()
	drained := make(chan struct{})
	counts := make([]int64, len(r.env.chains))
	errs := make([]error, len(r.env.chains))
	var wg sync.WaitGroup
	for i, c := range r.env.chains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.tr.timed(root, "core.ingest_archive", func() {
				counts[i], errs[i] = pub.FeedArchive(ctx, readers[i], serve.FeedConfig{Chain: c.name, Ingest: r.ingestConfig()})
			})
		}()
	}
	go func() {
		wg.Wait()
		close(drained)
	}()
	// Queries start once a snapshot lists every chain, so none of them asks
	// for a chain the API does not know yet. They run beside the ingest and
	// go on for sc.PostDrainQueries after it drains.
	loadDone := make(chan loadResult, 1)
	go func() {
		awaitRegistered(pub, len(r.env.chains), drained)
		loadDone <- runLoad(ctx, base, sc, chainNames(r.env), drained)
	}()
	<-drained
	stopPub()
	<-pubDone
	for i, c := range r.env.chains {
		if errs[i] != nil || counts[i] != c.blocks() {
			res.check("serve "+c.name, fmt.Sprintf("fed %d of %d blocks: %v", counts[i], c.blocks(), errs[i]), c.figures)
		}
	}
	figures, ferr := getFigures(ctx, base)
	if ferr == nil {
		res.check("served /v1/figures", figures, r.env.figures())
	}
	// The measured phase ends at verified drained figures; the post-drain
	// queries only add latency samples.
	if r.stopClock != nil {
		r.stopClock()
	}
	res.epochs = pub.Current().Epoch
	load := <-loadDone
	res.attempted += load.sent
	res.failed += load.failed
	res.latencies, res.lateMax, res.ingestQueries = load.latencies, load.lateMax, load.ingestSent
	return res, ferr
}

// awaitRegistered returns once the current snapshot lists n chains, or once
// every feed has ended (a feed that failed before registering reports its
// error through its count). It only reads snapshots: the publish loop and
// each feed's drain publish them, as in cmd/serve.
func awaitRegistered(pub *serve.Publisher, n int, drained <-chan struct{}) {
	for len(pub.Current().Chains) < n {
		select {
		case <-drained:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

func chainNames(e *env) []string {
	names := make([]string, len(e.chains))
	for i, c := range e.chains {
		names[i] = c.name
	}
	return names
}

// getFigures fetches the drained figures from the serving API.
func getFigures(ctx context.Context, base string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/figures", nil)
	if err != nil {
		return "", err
	}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /v1/figures: %s", resp.Status)
	}
	if resp.Header.Get("X-Serve-Epoch") == "0" {
		return "", fmt.Errorf("GET /v1/figures: no snapshot published")
	}
	return string(body), nil
}
