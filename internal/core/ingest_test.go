package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/collect"
	"repro/internal/rpcserve"
)

// makeEOSRawBlocks synthesizes raw nodeos-style block JSON: one transfer
// transaction per action slot, timestamps inside the observation window.
func makeEOSRawBlocks(t testing.TB, n, txsPerBlock int) [][]byte {
	t.Helper()
	raws := make([][]byte, n)
	for i := 0; i < n; i++ {
		blk := rpcserve.EOSBlockJSON{
			BlockNum:  uint32(i + 1),
			Timestamp: chain.ObservationStart.Add(time.Duration(i) * time.Minute).Format("2006-01-02T15:04:05.000"),
			Producer:  "eosio",
		}
		for j := 0; j < txsPerBlock; j++ {
			var trx rpcserve.EOSTrxJSON
			trx.Status = "executed"
			trx.Trx.Transaction.Actions = []rpcserve.EOSActionJSON{{
				Account: "eosio.token", Name: "transfer",
				Authorization: []map[string]string{{"actor": "alice"}},
				Data: map[string]string{
					"from": "alice", "to": "bob",
					"quantity": "1.0000 EOS",
				},
			}}
			blk.Transactions = append(blk.Transactions, trx)
		}
		raw, err := json.Marshal(blk)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	return raws
}

// memFetcher serves pre-marshaled blocks; it isolates ingestion cost from
// the network in tests and benchmarks.
type memFetcher struct{ raws [][]byte }

func (f *memFetcher) Head(ctx context.Context) (int64, error) { return int64(len(f.raws)), nil }

func (f *memFetcher) FetchBlock(ctx context.Context, num int64) ([]byte, error) {
	if num < 1 || num > int64(len(f.raws)) {
		return nil, fmt.Errorf("memFetcher: no block %d", num)
	}
	return f.raws[num-1], nil
}

// TestIngestStreamMatchesPerBlockIngest: the batched decode pool must
// produce exactly the same aggregate as driving the Ingestor one block at a
// time.
func TestIngestStreamMatchesPerBlockIngest(t *testing.T) {
	raws := makeEOSRawBlocks(t, 64, 3)

	one := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	ing := NewIngestor(one.Decoder())
	for i, raw := range raws {
		if err := ing.IngestRaw(int64(i+1), raw); err != nil {
			t.Fatal(err)
		}
	}

	batched := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	blocks, handle := collect.Stream(context.Background(), &memFetcher{raws}, collect.CrawlConfig{Workers: 4, Buffer: 8})
	n, err := IngestStream(context.Background(), blocks, batched.Decoder(), IngestConfig{Workers: 3, Batch: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := handle.Wait(); err != nil {
		t.Fatal(err)
	}
	if n != int64(len(raws)) {
		t.Fatalf("IngestStream ingested %d blocks, want %d", n, len(raws))
	}
	if one.Blocks != batched.Blocks || one.Transactions != batched.Transactions || one.Actions != batched.Actions {
		t.Fatalf("batched aggregate diverged: per-block {%d %d %d} vs batched {%d %d %d}",
			one.Blocks, one.Transactions, one.Actions,
			batched.Blocks, batched.Transactions, batched.Actions)
	}
	if one.TransferShare() != batched.TransferShare() {
		t.Fatalf("transfer share diverged: %f vs %f", one.TransferShare(), batched.TransferShare())
	}
}

// countingDecoder wraps a ShardedDecoder and records what its shards see:
// every batch folded in, every merge, and (through observe) the
// aggregate's size right after each merge.
type countingDecoder struct {
	ShardedDecoder
	observe func() int64 // nil: record no sizes

	mu      sync.Mutex
	batches []int
	shards  []*countingShard
	merged  []int64 // observe() after each merge, in merge order
}

func (d *countingDecoder) NewShard() Shard {
	s := &countingShard{inner: d.ShardedDecoder.NewShard(), d: d}
	d.mu.Lock()
	d.shards = append(d.shards, s)
	d.mu.Unlock()
	return s
}

// countingShard is one worker's shard, counting its own batches and
// merges (only its worker touches those fields).
type countingShard struct {
	inner           Shard
	d               *countingDecoder
	batches, merges int
}

func (s *countingShard) IngestBatch(batch []any) error {
	s.batches++
	s.d.mu.Lock()
	s.d.batches = append(s.d.batches, len(batch))
	s.d.mu.Unlock()
	return s.inner.IngestBatch(batch)
}

func (s *countingShard) Merge() {
	s.merges++
	s.inner.Merge()
	if s.d.observe != nil {
		size := s.d.observe()
		s.d.mu.Lock()
		s.d.merged = append(s.d.merged, size)
		s.d.mu.Unlock()
	}
}

// TestIngestStreamBatches: shard folds must be amortized — far fewer
// IngestBatch calls than blocks, and no batch above the configured cap.
func TestIngestStreamBatches(t *testing.T) {
	raws := makeEOSRawBlocks(t, 96, 1)
	agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	dec := &countingDecoder{ShardedDecoder: agg.Decoder()}
	blocks, handle := collect.Stream(context.Background(), &memFetcher{raws}, collect.CrawlConfig{Workers: 2, Buffer: 32})
	if _, err := IngestStream(context.Background(), blocks, dec, IngestConfig{Workers: 1, Batch: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := handle.Wait(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range dec.batches {
		if b > 16 {
			t.Fatalf("batch of %d exceeds configured cap 16", b)
		}
		total += b
	}
	if total != 96 {
		t.Fatalf("batches cover %d blocks, want 96", total)
	}
	if len(dec.batches) > 96/8 {
		t.Fatalf("%d shard batches for 96 blocks — batching is not amortizing", len(dec.batches))
	}
}

// TestIngestStreamDecodeErrorStops: a corrupt payload must surface as the
// ingest error without wedging the pool.
func TestIngestStreamDecodeErrorStops(t *testing.T) {
	raws := makeEOSRawBlocks(t, 10, 1)
	raws[4] = []byte("{corrupt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocks, handle := collect.Stream(ctx, &memFetcher{raws}, collect.CrawlConfig{Workers: 1, Buffer: 2})
	agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	_, err := IngestStream(ctx, blocks, agg.Decoder(), IngestConfig{Workers: 1, Batch: 4})
	if err == nil {
		t.Fatal("corrupt block ingested without error")
	}
	cancel() // the documented contract: cancel the stream after an ingest error
	if _, werr := handle.Wait(); werr == nil && err == nil {
		t.Fatal("no error surfaced anywhere")
	}
}

// TestDecodersRoundTripAllChains: each chain's Decoder must accept its own
// wire format and reject the others'.
func TestDecodersRoundTripAllChains(t *testing.T) {
	tezosRaw, err := json.Marshal(rpcserve.TezosBlockJSON{
		Level: 7, Timestamp: chain.ObservationStart.Format(time.RFC3339),
		Operations: []rpcserve.TezosOperationJSON{{Kind: "endorsement", Source: "tz1abc"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tezosAgg := NewTezosAggregator(chain.ObservationStart, 6*time.Hour)
	if err := NewIngestor(tezosAgg.Decoder()).IngestRaw(7, tezosRaw); err != nil {
		t.Fatal(err)
	}
	if tezosAgg.Blocks != 1 || tezosAgg.Operations != 1 {
		t.Fatalf("tezos ingest: %d blocks %d ops", tezosAgg.Blocks, tezosAgg.Operations)
	}

	xrpRaw := []byte(fmt.Sprintf(`{"ledger":{"ledger_index":3,"close_time_human":%q,"transactions":[{"TransactionType":"Payment","Account":"rAlice","Destination":"rBob","meta_TransactionResult":"tesSUCCESS","Amount":{"currency":"XRP","value":5}}]}}`,
		chain.ObservationStart.Format(time.RFC3339)))
	xrpAgg := NewXRPAggregator(chain.ObservationStart, 6*time.Hour)
	if err := NewIngestor(xrpAgg.Decoder()).IngestRaw(3, xrpRaw); err != nil {
		t.Fatal(err)
	}
	if xrpAgg.Ledgers != 1 || xrpAgg.Transactions != 1 {
		t.Fatalf("xrp ingest: %d ledgers %d txs", xrpAgg.Ledgers, xrpAgg.Transactions)
	}

	eosAgg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	if err := NewIngestor(eosAgg.Decoder()).IngestRaw(1, []byte(`not json`)); err == nil {
		t.Fatal("EOS decoder accepted garbage")
	}
}

// TestStatsKitPerChain: each chain name builds a kit whose Decoder feeds
// the ingest pool (sharded and arena-releasing) and names its chain in
// decode errors, and a standalone ShardState of that chain; an unknown
// chain is an error on both constructors.
func TestStatsKitPerChain(t *testing.T) {
	for _, name := range []string{"eos", "tezos", "xrp"} {
		t.Run(name, func(t *testing.T) {
			kit, err := NewStatsKit(name, chain.ObservationStart, 6*time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := kit.Decoder.(ShardedDecoder); !ok {
				t.Errorf("%T is not a ShardedDecoder", kit.Decoder)
			}
			if _, ok := kit.Decoder.(BatchReleaser); !ok {
				t.Errorf("%T is not a BatchReleaser", kit.Decoder)
			}
			if _, err := kit.Decoder.Decode(1, []byte(`{"truncated`)); err == nil || !strings.Contains(strings.ToLower(err.Error()), name) {
				t.Errorf("malformed payload: error %v does not name %s", err, name)
			}
			if err := kit.Decoder.IngestBatch([]any{"not a block"}); err == nil || !strings.Contains(err.Error(), "batch element 0 is string") {
				t.Errorf("foreign batch element: %v", err)
			}
			if got := kit.State().Chain(); got != name {
				t.Errorf("kit state chain = %q", got)
			}
			st, err := NewShardState(name, chain.ObservationStart, 6*time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if st.Chain() != name {
				t.Errorf("NewShardState(%q).Chain() = %q", name, st.Chain())
			}
		})
	}
	if _, err := NewStatsKit("btc", chain.ObservationStart, 6*time.Hour); err == nil {
		t.Error("NewStatsKit accepted an unknown chain")
	}
	if _, err := NewShardState("btc", chain.ObservationStart, 6*time.Hour); err == nil {
		t.Error("NewShardState accepted an unknown chain")
	}
}

// TestIngestMergeEvery: with MergeEvery m both entry points fold each
// worker's shard into the aggregator every m batches — the aggregate grows
// mid-run, which is what serving snapshots see — and once more at drain.
// With MergeEvery 0 each shard merges exactly once, at drain, after every
// block is in.
func TestIngestMergeEvery(t *testing.T) {
	const total, batch = 96, 4
	raws := makeEOSRawBlocks(t, total, 1)
	rd := writeRawArchive(t, t.TempDir(), "eos", raws)
	ctx := context.Background()
	entries := map[string]func(Decoder, IngestConfig) (int64, error){
		"stream": func(d Decoder, cfg IngestConfig) (int64, error) {
			blocks, handle := collect.Stream(ctx, &memFetcher{raws}, collect.CrawlConfig{Workers: 2, Buffer: 8})
			n, err := IngestStream(ctx, blocks, d, cfg)
			if _, werr := handle.Wait(); werr != nil {
				t.Fatal(werr)
			}
			return n, err
		},
		"archive": func(d Decoder, cfg IngestConfig) (int64, error) {
			return IngestArchive(ctx, rd, d, cfg)
		},
	}
	for name, ingest := range entries {
		for _, workers := range []int{1, 3} {
			for _, every := range []int{0, 3} {
				agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
				dec := &countingDecoder{ShardedDecoder: agg.Decoder(), observe: func() int64 {
					agg.mu.Lock()
					defer agg.mu.Unlock()
					return agg.Blocks
				}}
				n, err := ingest(dec, IngestConfig{Workers: workers, Batch: batch, MergeEvery: every})
				if err != nil {
					t.Fatalf("%s workers=%d every=%d: %v", name, workers, every, err)
				}
				if n != total || agg.Blocks != total {
					t.Fatalf("%s workers=%d every=%d: ingested %d, aggregate holds %d blocks, want %d",
						name, workers, every, n, agg.Blocks, total)
				}
				if len(dec.shards) != workers {
					t.Fatalf("%s: %d shards for %d workers", name, len(dec.shards), workers)
				}
				for i, s := range dec.shards {
					want := 1 // the drain merge
					if every > 0 {
						want += s.batches / every
					}
					if s.merges != want {
						t.Errorf("%s workers=%d every=%d: shard %d merged %d times over %d batches, want %d",
							name, workers, every, i, s.merges, s.batches, want)
					}
				}
				// One worker sees every block, so its merges are
				// deterministic: the first lands after every*batch blocks
				// with MergeEvery set, after all of them without.
				if workers == 1 {
					first := int64(total)
					if every > 0 {
						first = int64(every * batch)
					}
					if dec.merged[0] != first {
						t.Errorf("%s every=%d: first merge left %d blocks in the aggregate, want %d",
							name, every, dec.merged[0], first)
					}
				}
			}
		}
	}
}

// unshardedDecoder hides the chain decoder's NewShard.
type unshardedDecoder struct{ Decoder }

// TestIngestRejectsUnshardedDecoder: both entry points need per-worker
// shards; a plain Decoder is an error, never a silent locked slow path.
func TestIngestRejectsUnshardedDecoder(t *testing.T) {
	raws := makeEOSRawBlocks(t, 8, 1)
	rd := writeRawArchive(t, t.TempDir(), "eos", raws)
	agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	dec := unshardedDecoder{agg.Decoder()}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocks, handle := collect.Stream(ctx, &memFetcher{raws}, collect.CrawlConfig{Workers: 1, Buffer: 2})
	_, err := IngestStream(ctx, blocks, dec, IngestConfig{})
	cancel() // the documented contract: cancel the stream after an ingest error
	handle.Wait()
	if err == nil || !strings.Contains(err.Error(), "not a ShardedDecoder") {
		t.Errorf("IngestStream with an unsharded decoder: %v", err)
	}
	if _, err := IngestArchive(context.Background(), rd, dec, IngestConfig{}); err == nil || !strings.Contains(err.Error(), "not a ShardedDecoder") {
		t.Errorf("IngestArchive with an unsharded decoder: %v", err)
	}
	if agg.Blocks != 0 {
		t.Errorf("rejected decoder still ingested %d blocks", agg.Blocks)
	}
}

// BenchmarkShardedIngest measures the stream drained into per-worker
// shards merged once at drain, at two worker counts: on a multi-core
// runner it scales with the worker count, since the hot path takes no
// aggregator lock.
func BenchmarkShardedIngest(b *testing.B) {
	raws := makeEOSRawBlocks(b, 256, 8)
	f := &memFetcher{raws}
	ctx := context.Background()
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("sharded-%dw", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
				blocks, handle := collect.Stream(ctx, f, collect.CrawlConfig{Workers: 4, Buffer: 64})
				n, err := IngestStream(ctx, blocks, agg.Decoder(), IngestConfig{Workers: workers, Batch: 32})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := handle.Wait(); err != nil {
					b.Fatal(err)
				}
				if n != int64(len(raws)) {
					b.Fatalf("ingested %d", n)
				}
			}
		})
	}
}

// BenchmarkStreamIngest tracks the streaming path in the perf trajectory: a
// 256-block EOS history through a bounded stream into the decode pool, each
// worker folding batches into its own shard.
func BenchmarkStreamIngest(b *testing.B) {
	raws := makeEOSRawBlocks(b, 256, 8)
	f := &memFetcher{raws}
	ctx := context.Background()

	b.Run("stream-batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			agg := NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
			blocks, handle := collect.Stream(ctx, f, collect.CrawlConfig{Workers: 4, Buffer: 64})
			n, err := IngestStream(ctx, blocks, agg.Decoder(), IngestConfig{Workers: 2, Batch: 32})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := handle.Wait(); err != nil {
				b.Fatal(err)
			}
			if n != int64(len(raws)) {
				b.Fatalf("ingested %d", n)
			}
		}
	})
}
