package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blobstore"
	"repro/internal/collect"
	"repro/internal/core"
)

// span is one timed call across a layer boundary, recorded by the
// wrappers below from outside the program.
type span struct {
	ID, Parent uint64
	Name       string
	// Tag classifies blob-store keys (lease, runstate, checkpoint, shard,
	// archive) so coordinator puts can be split by purpose.
	Tag        string
	Start, End time.Duration // since the tracer's epoch
	Bytes      int64
}

// tracer keeps every span of a run in memory and writes them out when the
// run ends. Counters hold values the program reports itself (a
// CrawlResult's gzip bytes, a coordinator result's task count).
type tracer struct {
	runID string
	epoch time.Time
	next  atomic.Uint64
	// root is the current iteration's span: the parent of server-side
	// spans, which see no caller context.
	root atomic.Uint64

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, epoch: time.Now(), counters: make(map[string]float64)}
}

// openSpan is a span that has started and not yet ended. It is a value,
// so tracing a call costs no allocation beyond the span record itself.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span under parent. With a nil tracer the span is inert:
// its methods do nothing, so untraced code paths need no branches.
func (t *tracer) begin(parent uint64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{ID: t.next.Add(1), Parent: parent, Name: name, Start: time.Since(t.epoch)}}
}

func (o openSpan) id() uint64 { return o.s.ID }

func (o openSpan) end(bytes int64) {
	if o.t == nil {
		return
	}
	o.endAt(time.Since(o.t.epoch), bytes)
}

// endAt records the span as ending at a given offset from the epoch.
func (o openSpan) endAt(end time.Duration, bytes int64) {
	if o.t == nil {
		return
	}
	o.s.End = end
	o.s.Bytes = bytes
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// rootID returns the current iteration's span.
func (t *tracer) rootID() uint64 {
	if t == nil {
		return 0
	}
	return t.root.Load()
}

func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(parent uint64, name string, fn func()) {
	o := t.begin(parent, name)
	fn()
	o.end(0)
}

type parentKey struct{}

// withParent makes id the parent of spans recorded under ctx.
func withParent(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, parentKey{}, id)
}

// parentOf returns the span ctx carries, or fallback.
func parentOf(ctx context.Context, fallback uint64) uint64 {
	if id, ok := ctx.Value(parentKey{}).(uint64); ok {
		return id
	}
	return fallback
}

// snapshot returns a copy of the spans and counters recorded so far.
func (t *tracer) snapshot() ([]span, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	counters := make(map[string]float64, len(t.counters))
	for k, v := range t.counters {
		counters[k] = v
	}
	return append([]span(nil), t.spans...), counters
}

// selfTimes returns each span's duration minus the part of it that its
// children, optionally only those named child, cover.
func selfTimes(spans []span, child string) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if child == "" || s.Name == child {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total time.Duration
	lo, hi := time.Duration(-1), time.Duration(-1)
	for _, c := range children {
		start, end := max(c.Start, parent.Start), min(c.End, parent.End)
		if end <= start {
			continue
		}
		if start > hi {
			total += hi - lo
			lo, hi = start, end
		} else if end > hi {
			hi = end
		}
	}
	return total + hi - lo
}

// writeSpans writes every span as one JSON line, with its self time.
func writeSpans(path, runID string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	self := selfTimes(spans, "")
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			Run     string `json:"run"`
			ID      uint64 `json:"id"`
			Parent  uint64 `json:"parent"`
			Name    string `json:"name"`
			Tag     string `json:"tag,omitempty"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			SelfNs  int64  `json:"self_ns"`
			Bytes   int64  `json:"bytes,omitempty"`
		}{runID, s.ID, s.Parent, s.Name, s.Tag, int64(s.Start), int64(s.End), int64(self[s.ID]), s.Bytes}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedFetcher times every fetch. It keeps collect.RawRecycler, so the
// stream still recycles payload buffers, and forwards Close to a client
// that has one (the XRP WebSocket client).
type tracedFetcher struct {
	inner  collect.BlockFetcher
	t      *tracer
	parent uint64
}

func (f *tracedFetcher) Head(ctx context.Context) (int64, error) {
	o := f.t.begin(parentOf(ctx, f.parent), "collect.head")
	n, err := f.inner.Head(ctx)
	o.end(0)
	return n, err
}

func (f *tracedFetcher) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	o := f.t.begin(parentOf(ctx, f.parent), "collect.fetch")
	raw, err := f.inner.FetchBlock(ctx, num)
	o.end(int64(len(raw)))
	return raw, err
}

func (f *tracedFetcher) OwnsRaw() bool {
	rr, ok := f.inner.(collect.RawRecycler)
	return ok && rr.OwnsRaw()
}

func (f *tracedFetcher) Close() error {
	if c, ok := f.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// tracedDecoder times decodes and, through the shards it hands out, batch
// ingests and merges. It keeps core.ShardedDecoder and core.BatchReleaser:
// without them the ingest pools would silently take the locked path and
// stop recycling decoded blocks.
type tracedDecoder struct {
	inner   core.Decoder
	sharded core.ShardedDecoder
	rel     core.BatchReleaser
	t       *tracer
	parent  uint64
}

func newTracedDecoder(d core.Decoder, t *tracer, parent uint64) *tracedDecoder {
	sharded, ok1 := d.(core.ShardedDecoder)
	rel, ok2 := d.(core.BatchReleaser)
	if !ok1 || !ok2 {
		panic("perfbench: every chain decoder is a ShardedDecoder and a BatchReleaser")
	}
	return &tracedDecoder{inner: d, sharded: sharded, rel: rel, t: t, parent: parent}
}

func (d *tracedDecoder) Decode(num int64, raw []byte) (any, error) {
	o := d.t.begin(d.parent, "wire.decode")
	v, err := d.inner.Decode(num, raw)
	o.end(int64(len(raw)))
	return v, err
}

func (d *tracedDecoder) IngestBatch(batch []any) error {
	o := d.t.begin(d.parent, "core.ingest_batch")
	err := d.inner.IngestBatch(batch)
	o.end(0)
	return err
}

func (d *tracedDecoder) NewShard() core.Shard {
	o := d.t.begin(d.parent, "core.new_shard")
	s := d.sharded.NewShard()
	o.end(0)
	return &tracedShard{inner: s, t: d.t, parent: d.parent}
}

func (d *tracedDecoder) ReleaseBatch(batch []any) { d.rel.ReleaseBatch(batch) }

type tracedShard struct {
	inner  core.Shard
	t      *tracer
	parent uint64
}

func (s *tracedShard) IngestBatch(batch []any) error {
	o := s.t.begin(s.parent, "core.ingest_batch")
	err := s.inner.IngestBatch(batch)
	o.end(0)
	return err
}

func (s *tracedShard) Merge() {
	o := s.t.begin(s.parent, "core.shard_merge")
	s.inner.Merge()
	o.end(0)
}

// tracedStore times every blob-store call and tags its key's purpose.
type tracedStore struct {
	inner  blobstore.Store
	t      *tracer
	parent uint64
}

// keyTag classifies a blob key by the coordinator's key layout.
func keyTag(key string) string {
	switch {
	case strings.HasPrefix(key, "lease/"):
		return "lease"
	case strings.HasPrefix(key, "run/"):
		return "runstate"
	case strings.HasPrefix(key, "ckpt/"):
		return "checkpoint"
	case strings.HasSuffix(key, ".shard"):
		return "shard"
	}
	return "archive"
}

func (s *tracedStore) op(ctx context.Context, name, key string) openSpan {
	o := s.t.begin(parentOf(ctx, s.parent), name)
	o.s.Tag = keyTag(key)
	return o
}

func (s *tracedStore) URL() string { return s.inner.URL() }

func (s *tracedStore) Put(ctx context.Context, key string, data []byte) error {
	o := s.op(ctx, "blobstore.put", key)
	err := s.inner.Put(ctx, key, data)
	o.end(int64(len(data)))
	return err
}

func (s *tracedStore) Get(ctx context.Context, key string) ([]byte, error) {
	o := s.op(ctx, "blobstore.get", key)
	b, err := s.inner.Get(ctx, key)
	o.end(int64(len(b)))
	return b, err
}

func (s *tracedStore) GetRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	o := s.op(ctx, "blobstore.get", key)
	b, err := s.inner.GetRange(ctx, key, off, n)
	o.end(int64(len(b)))
	return b, err
}

func (s *tracedStore) List(ctx context.Context, prefix string) ([]string, error) {
	o := s.op(ctx, "blobstore.list", prefix)
	keys, err := s.inner.List(ctx, prefix)
	o.end(0)
	return keys, err
}

func (s *tracedStore) Stat(ctx context.Context, key string) (int64, error) {
	o := s.op(ctx, "blobstore.stat", key)
	n, err := s.inner.Stat(ctx, key)
	o.end(0)
	return n, err
}

func (s *tracedStore) Delete(ctx context.Context, key string) error {
	o := s.op(ctx, "blobstore.delete", key)
	err := s.inner.Delete(ctx, key)
	o.end(0)
	return err
}

// tracedTee times the archive tee, CrawlConfig.Tee's shape.
func tracedTee(t *tracer, parent uint64, tee func(int64, []byte) error) func(int64, []byte) error {
	return func(num int64, raw []byte) error {
		o := t.begin(parent, "archive.append")
		err := tee(num, raw)
		o.end(int64(len(raw)))
		return err
	}
}

// tracedHandler times every HTTP request a handler serves and counts the
// response bytes.
type tracedHandler struct {
	inner http.Handler
	t     *tracer
	name  string
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o := h.t.begin(h.t.rootID(), h.name)
	cw := &countingWriter{ResponseWriter: w}
	h.inner.ServeHTTP(cw, r)
	o.end(cw.n)
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the server's writer.
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// tracedListener traces a WebSocket endpoint, where one HTTP request
// carries a whole session: each connection records one span per request
// cycle, from the read that brought a request to the last write before the
// next read. The XRP protocol is strictly request/response per connection,
// so a cycle is one command.
type tracedListener struct {
	net.Listener
	t    *tracer
	name string
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t, name: l.name}, nil
}

type tracedConn struct {
	net.Conn
	t    *tracer
	name string

	mu    sync.Mutex
	cycle openSpan // the request cycle in progress; zero between cycles
	wrote int64
	last  time.Duration
}

// flushLocked ends the current request cycle if it wrote a response.
func (c *tracedConn) flushLocked() {
	if c.cycle.t == nil || c.wrote == 0 {
		return
	}
	// The cycle ends at its last write, so the idle wait for the next
	// request is not counted as busy.
	c.cycle.endAt(c.last, c.wrote)
	c.cycle, c.wrote = openSpan{}, 0
}

func (c *tracedConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.flushLocked()
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		if c.cycle.t == nil {
			c.cycle = c.t.begin(c.t.rootID(), c.name)
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.wrote += int64(n)
	c.last = time.Since(c.t.epoch)
	c.mu.Unlock()
	return n, err
}

func (c *tracedConn) Close() error {
	c.mu.Lock()
	c.flushLocked()
	c.mu.Unlock()
	return c.Conn.Close()
}
