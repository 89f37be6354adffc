package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/archive"
	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/rpcserve"
	"repro/internal/workload"
)

// chainEnv is one simulated chain as the workloads see it.
type chainEnv struct {
	name     string
	from, to int64
	// url is the chain's RPC endpoint; tracedURL serves the same chain
	// behind the tracing wrappers (trace runs only).
	url, tracedURL string
	// archive holds the chain's archive, written in setup for replay and
	// serve.
	archive *blobstore.Memory
	// figures is the reference figures section every workload must
	// reproduce byte for byte.
	figures string
}

func (c *chainEnv) blocks() int64 { return c.to - c.from + 1 }

// env is everything setup builds: the simulated chains, their endpoints,
// their archives and their reference figures.
type env struct {
	chains            []*chainEnv
	stops             []func()
	buildS, simulateS float64
}

// close stops the endpoints and empties the archives.
func (e *env) close() {
	for _, stop := range e.stops {
		stop()
	}
	for _, c := range e.chains {
		if c.archive != nil {
			clearStore(c.archive)
		}
	}
}

// figures concatenates the reference figures in chain-name order, the
// order the serving layer renders them in.
func (e *env) figures() string {
	var sb strings.Builder
	for _, c := range e.chains {
		sb.WriteString(c.figures)
	}
	return sb.String()
}

// setup simulates every chain from seed, starts its endpoint (and a traced
// twin when tr is set), and makes one sequential reference pass over each
// chain: it fetches every block once, archives it and ingests it through
// the plain locked decoder path. That pass yields the reference figures
// and the archives the replay and serve workloads read.
func setup(cfg Config, seed int64, tr *tracer) (*env, error) {
	e := &env{}
	for _, cc := range cfg.Chains {
		c, err := e.addChain(cc, seed, tr)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("setup %s: %w", cc.Name, err)
		}
		e.chains = append(e.chains, c)
	}
	return e, nil
}

func (e *env) addChain(cc ChainConfig, seed int64, tr *tracer) (*chainEnv, error) {
	c := &chainEnv{name: cc.Name, from: 1}
	var handler http.Handler
	ws := false
	start := time.Now()
	switch cc.Name {
	case "eos":
		s, err := workload.BuildEOS(workload.EOSOptions{Scale: cc.Scale, Seed: seed})
		if err != nil {
			return nil, err
		}
		built := time.Now()
		s.Run()
		e.addSimTimes(start, built)
		c.to = int64(s.Chain.HeadNum())
		handler = rpcserve.NewEOSServer(s.Chain)
	case "tezos":
		s, err := workload.BuildTezos(workload.TezosOptions{Scale: cc.Scale, Seed: seed})
		if err != nil {
			return nil, err
		}
		built := time.Now()
		if _, err := s.Run(); err != nil {
			return nil, err
		}
		e.addSimTimes(start, built)
		c.to = s.Chain.HeadLevel()
		handler = rpcserve.NewTezosServer(s.Chain)
	case "xrp":
		s, err := workload.BuildXRP(workload.XRPOptions{Scale: cc.Scale, Seed: seed})
		if err != nil {
			return nil, err
		}
		built := time.Now()
		s.Run()
		e.addSimTimes(start, built)
		// The build phase's ledgers stand in for pre-window history; the
		// crawl starts after them, as the pipeline's XRP stage does.
		c.from, c.to = s.SetupLedgers+1, s.State.HeadIndex()
		handler = rpcserve.NewXRPServer(s.State)
		ws = true
	default:
		return nil, fmt.Errorf("unknown chain %q", cc.Name)
	}
	if c.blocks() != cc.Blocks {
		return nil, fmt.Errorf("scale %d produced %d blocks, workloads.json pins %d", cc.Scale, c.blocks(), cc.Blocks)
	}

	var err error
	if c.url, err = e.listen(handler, nil, ws); err != nil {
		return nil, err
	}
	if tr != nil {
		if c.tracedURL, err = e.listen(handler, tr, ws); err != nil {
			return nil, err
		}
	}
	c.archive = blobstore.OpenMemory("perfbench/setup/" + c.name)
	clearStore(c.archive)
	if c.figures, err = referencePass(c); err != nil {
		return nil, err
	}
	return c, nil
}

func (e *env) addSimTimes(start, built time.Time) {
	e.buildS += built.Sub(start).Seconds()
	e.simulateS += time.Since(built).Seconds()
}

// listen serves h on a loopback port and returns its URL (ws:// for the
// WebSocket endpoint). With a tracer, requests are recorded as
// rpcserve.request spans.
func (e *env) listen(h http.Handler, tr *tracer, ws bool) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if tr != nil {
		if ws {
			ln = &tracedListener{Listener: ln, t: tr, name: "rpcserve.request"}
		} else {
			h = &tracedHandler{inner: h, t: tr, name: "rpcserve.request"}
		}
	}
	e.stops = append(e.stops, startServer(ln, h))
	scheme := "http://"
	if ws {
		scheme = "ws://"
	}
	return scheme + ln.Addr().String(), nil
}

// startServer serves h on ln and returns a function that closes the
// server and waits for it to stop.
func startServer(ln net.Listener, h http.Handler) (stop func()) {
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed after Close
	}()
	return func() {
		_ = srv.Close()
		<-done
	}
}

// newClient returns the chain's RPC client for an endpoint URL.
func newClient(chainName, url string) collect.BlockFetcher {
	switch chainName {
	case "eos":
		return collect.NewEOSClient(url)
	case "tezos":
		return collect.NewTezosClient(url)
	}
	return collect.NewXRPClient(url)
}

// closeClient closes a client that holds a connection (the XRP WebSocket
// client, or a traced wrapper around it).
func closeClient(f collect.BlockFetcher) {
	if c, ok := f.(io.Closer); ok {
		_ = c.Close()
	}
}

// newKit builds a chain's aggregator stack anchored where cmd/crawl,
// cmd/report and the serving layer anchor theirs.
func newKit(chainName string) (core.StatsKit, error) {
	return core.NewStatsKit(chainName, chain.ObservationStart, 6*time.Hour)
}

// referencePass fetches every block of the chain once, in order, writes
// it to the chain's setup archive and ingests it one block at a time
// through core.NewIngestor. It returns the rendered figures.
func referencePass(c *chainEnv) (string, error) {
	ctx := context.Background()
	client := newClient(c.name, c.url)
	defer closeClient(client)
	kit, err := newKit(c.name)
	if err != nil {
		return "", err
	}
	w, err := archive.NewWriter(archive.WriterConfig{Dir: c.archive.URL(), Store: c.archive, Chain: c.name})
	if err != nil {
		return "", err
	}
	ing := core.NewIngestor(kit.Decoder)
	for num := c.from; num <= c.to; num++ {
		raw, err := client.FetchBlock(ctx, num)
		if err == nil {
			err = w.Append(num, raw)
		}
		if err == nil {
			err = ing.IngestRaw(num, raw)
		}
		if err != nil {
			return "", errors.Join(fmt.Errorf("block %d: %w", num, err), w.Close())
		}
	}
	if err := w.Close(); err != nil {
		return "", err
	}
	sum := kit.Summarize()
	if sum.Blocks != c.blocks() {
		return "", fmt.Errorf("reference pass ingested %d blocks of [%d, %d]", sum.Blocks, c.from, c.to)
	}
	return sum.Render(), nil
}

// clearStore deletes every object in a memory store, so a named store can
// be reused without growing.
func clearStore(st blobstore.Store) {
	ctx := context.Background()
	keys, _ := st.List(ctx, "") // a memory store's List cannot fail
	for _, k := range keys {
		_ = st.Delete(ctx, k)
	}
}
