// Command serve is the online stats serving layer: it ingests block
// history continuously — from live chain endpoints (with an optional
// archive tee), from an archived crawl replayed offline, or from the whole
// reproduction pipeline — and answers per-chain summary, figure and
// percentile queries over HTTP/JSON while ingestion is still running.
//
// Reads never wait on ingestion: every query answers from an immutable
// snapshot swapped in atomically per merge epoch (see internal/serve), and
// every response carries its epoch and staleness. Once the feeds drain the
// final epoch's figures are byte-identical to what cmd/report -replay
// prints for the same blocks — the CI serve job diffs exactly that — and
// the server keeps answering until SIGINT/SIGTERM, which shuts it down
// cleanly like cmd/crawl.
//
// Usage:
//
//	serve -addr :8080 -replay STORE
//	serve -addr :8080 -eos URL [-tezos URL] [-xrp URL] [-archive STORE]
//	serve -addr :8080 -pipeline
//
// STORE is a blob-store location: a plain directory path, file://PATH,
// mem://NAME, or s3://BUCKET/PREFIX?endpoint=URL.
//
// Endpoints: /healthz (liveness), /readyz (readiness — 503 until the
// first snapshot epoch publishes), /v1/status, /v1/chains,
// /v1/summary/{chain}, /v1/figures[/{chain}],
// /v1/percentiles/{chain}?p=50,90,99.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/cli"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/rpcserve"
	"repro/internal/serve"
)

type serveOpts struct {
	addr  string
	eos   string
	tezos string
	xrp   string
	cli.ArchiveFlags
	runPipeline bool
	epoch       time.Duration
	workers     int
	ingest      int
	batch       int
	buffer      int

	// ready, when set, is called with the base URL once the listener is
	// accepting — the hook tests use to query mid-ingest.
	ready func(baseURL string)
}

func main() {
	var o serveOpts
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "HTTP listen address")
	flag.StringVar(&o.eos, "eos", "", "EOS endpoint URL to crawl live")
	flag.StringVar(&o.tezos, "tezos", "", "Tezos endpoint URL to crawl live")
	flag.StringVar(&o.xrp, "xrp", "", "XRP WebSocket endpoint URL to crawl live")
	o.ArchiveFlags.Register(flag.CommandLine, cli.ModeServe)
	flag.BoolVar(&o.runPipeline, "pipeline", false, "serve the full reproduction pipeline's stages as they crawl")
	flag.DurationVar(&o.epoch, "epoch", 200*time.Millisecond, "snapshot publish interval")
	flag.IntVar(&o.workers, "workers", 4, "concurrent fetchers per live feed (xrp uses 1)")
	flag.IntVar(&o.ingest, "ingest", 2, "decode/ingest workers per feed")
	flag.IntVar(&o.batch, "batch", 16, "blocks per ingest batch")
	flag.IntVar(&o.buffer, "buffer", 64, "stream buffer per live feed")
	flag.Parse()
	if err := o.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// lockedWriter serializes progress lines from concurrent feeds.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// run is the whole command behind flag parsing and signal wiring, testable
// with a cancellable context and an output buffer. Lifecycle: listen →
// start the publish loop → run every feed to drain → final epoch → keep
// serving the drained figures until ctx is cancelled → graceful shutdown.
func run(ctx context.Context, o serveOpts, rawOut io.Writer) error {
	out := &lockedWriter{w: rawOut}
	pub := serve.NewPublisher()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           serve.NewHandler(pub),
		ReadHeaderTimeout: rpcserve.ReadHeaderTimeout,
		MaxHeaderBytes:    rpcserve.MaxHeaderBytes,
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	baseURL := "http://" + ln.Addr().String()
	fmt.Fprintf(out, "serving:     %s\n", baseURL)
	if o.ready != nil {
		o.ready(baseURL)
	}

	// The publish loop outlives feed cancellation on purpose: it stops —
	// with one final epoch — only after every feed has fully drained, so
	// the last snapshot is guaranteed complete.
	tickCtx, tickStop := context.WithCancel(context.Background())
	tickDone := make(chan struct{})
	go func() {
		pub.Run(tickCtx, o.epoch)
		close(tickDone)
	}()

	feedErr := runFeeds(ctx, pub, o, out)

	tickStop()
	<-tickDone

	snap := pub.Current()
	for _, name := range snap.Names() {
		st := snap.Chains[name]
		fmt.Fprintf(out, "drained:     %s — %d blocks, %d txs/ops (epoch %d)\n",
			name, st.Summary.Blocks, st.Summary.Transactions, snap.Epoch)
	}

	interrupted := errors.Is(feedErr, context.Canceled)
	if feedErr != nil && !interrupted {
		srv.Close()
		return feedErr
	}
	if interrupted {
		fmt.Fprintln(out, "interrupted mid-ingest — serving partial figures until shutdown")
	}

	// Feeds are done; keep answering queries over the final snapshot until
	// the caller signals shutdown.
	<-ctx.Done()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-serveDone; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "shutdown:    clean")
	return nil
}

// runFeeds drives every configured ingest feed to completion and returns
// their joined errors. Exactly one feed mode applies per invocation.
func runFeeds(ctx context.Context, pub *serve.Publisher, o serveOpts, out io.Writer) error {
	switch {
	case o.Replaying():
		return replayFeeds(ctx, pub, o, out)
	case o.runPipeline:
		popts := pipeline.DefaultOptions()
		popts.Workers = o.workers
		popts.Buffer = o.buffer
		popts.Batch = o.batch
		popts.Serve = pub
		if o.Archive != "" {
			popts.ArchiveDir = o.Archive
		}
		_, err := pipeline.Run(ctx, popts)
		return err
	case o.eos != "" || o.tezos != "" || o.xrp != "":
		type feed struct{ chain, endpoint string }
		var feeds []feed
		for _, f := range []feed{{"eos", o.eos}, {"tezos", o.tezos}, {"xrp", o.xrp}} {
			if f.endpoint != "" {
				feeds = append(feeds, f)
			}
		}
		errs := make([]error, len(feeds))
		var wg sync.WaitGroup
		for i, f := range feeds {
			wg.Add(1)
			go func(i int, f feed) {
				defer wg.Done()
				errs[i] = liveFeed(ctx, pub, o, f.chain, f.endpoint, out)
			}(i, f)
		}
		wg.Wait()
		return errors.Join(errs...)
	default:
		return errors.New("nothing to serve: pass -replay DIR, -pipeline, or at least one of -eos/-tezos/-xrp")
	}
}

// replayFeeds serves archived crawls: every archive under o.Replay replays
// segment-parallel into its own registered feed, all concurrently.
func replayFeeds(ctx context.Context, pub *serve.Publisher, o serveOpts, out io.Writer) error {
	dirs, err := archive.Discover(o.Replay)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(dirs))
	for i, dir := range dirs {
		rd, err := archive.Open(dir)
		if err != nil {
			return err
		}
		if rd.Blocks() == 0 {
			fmt.Fprintf(out, "skipping:    %s (empty archive)\n", dir)
			continue
		}
		wg.Add(1)
		go func(i int, dir string, rd *archive.Reader) {
			defer wg.Done()
			n, ferr := pub.FeedArchive(ctx, rd, serve.FeedConfig{
				Ingest: core.IngestConfig{Workers: o.ingest, Batch: o.batch},
			})
			if ferr != nil {
				errs[i] = fmt.Errorf("replaying %s: %w", dir, ferr)
				return
			}
			fmt.Fprintf(out, "replayed:    %s — %d blocks from %s\n", rd.Chain(), n, dir)
		}(i, dir, rd)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// liveFeed crawls one chain endpoint into the publisher, optionally teeing
// every raw block into an archive for later offline replay.
func liveFeed(ctx context.Context, pub *serve.Publisher, o serveOpts, chainName, endpoint string, out io.Writer) error {
	fetcher, workers, err := collect.NewClient(chainName, endpoint, o.workers)
	if err != nil {
		return err
	}
	if c, ok := fetcher.(io.Closer); ok {
		defer c.Close()
	}

	ccfg := collect.CrawlConfig{
		From: o.From, To: o.To,
		Workers: workers, Buffer: o.buffer,
		MaxRetries: 8, Backoff: 5 * time.Millisecond,
	}
	var sink *archive.Writer
	if o.Archive != "" {
		var err error
		sink, err = archive.NewWriter(archive.WriterConfig{
			Dir: blobstore.Join(o.Archive, chainName), Chain: chainName,
		})
		if err != nil {
			return err
		}
		ccfg.Tee = sink.Append
	}

	res, err := pub.Feed(ctx, fetcher, ccfg, serve.FeedConfig{
		Chain:  chainName,
		Ingest: core.IngestConfig{Workers: o.ingest, Batch: o.batch},
	})
	if sink != nil {
		if cerr := sink.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("finalizing %s archive: %w", chainName, cerr))
		}
	}
	fmt.Fprintf(out, "ingested:    %s — %d blocks (failed %d, retries %d)\n",
		chainName, res.Blocks, res.Failed, res.Retries)
	return err
}
