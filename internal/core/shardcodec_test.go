package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/chain"
	"repro/internal/wire"
	"repro/internal/xrp"
)

// encodeState is a test helper: one shard state to a sealed blob.
func encodeState(t testing.TB, st ShardState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testShardCodecRoundTrip is the tentpole property at unit scale: split a
// block set into contiguous partitions, ingest each into its own
// ShardState, encode → decode every shard, merge the decoded copies, and
// the merged figures must be byte-identical to a single state that
// ingested everything. It also asserts decode→re-encode reproduces the
// original blob bit-for-bit — the codec is canonical, not just faithful.
func testShardCodecRoundTrip[B any](t *testing.T, chainName string, blocks []B) {
	t.Helper()
	single, err := NewShardState(chainName, chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.IngestBatch(asBatch(blocks)); err != nil {
		t.Fatal(err)
	}
	single.SetCovered(BlockRange{From: 1, To: int64(len(blocks))})
	want := single.Summary().Render()
	if want == "" {
		t.Fatal("baseline render is empty — generator produced no data")
	}

	for _, parts := range []int{1, 2, 3, 5} {
		var decoded []ShardState
		per := (len(blocks) + parts - 1) / parts
		for i := 0; i < parts; i++ {
			lo, hi := i*per, (i+1)*per
			if hi > len(blocks) {
				hi = len(blocks)
			}
			st, err := NewShardState(chainName, chain.ObservationStart, 6*time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.IngestBatch(asBatch(blocks[lo:hi])); err != nil {
				t.Fatal(err)
			}
			st.SetCovered(BlockRange{From: int64(lo + 1), To: int64(hi)})
			blob := encodeState(t, st)

			dec, err := DecodeShard(blob)
			if err != nil {
				t.Fatalf("%d-way partition %d: decode: %v", parts, i, err)
			}
			if dec.Chain() != chainName {
				t.Fatalf("decoded chain %q, want %q", dec.Chain(), chainName)
			}
			if got, want := dec.Covered(), st.Covered(); got != want {
				t.Fatalf("decoded covered range %s, want %s", got, want)
			}
			// Canonical: re-encoding the decoded state reproduces the blob.
			if reblob := encodeState(t, dec); !bytes.Equal(reblob, blob) {
				t.Fatalf("%d-way partition %d: decode→re-encode is not byte-identical (%d vs %d bytes)",
					parts, i, len(reblob), len(blob))
			}
			decoded = append(decoded, dec)
		}
		merged, err := MergeShards(decoded)
		if err != nil {
			t.Fatalf("%d-way merge: %v", parts, err)
		}
		if got := merged.Summary().Render(); got != want {
			t.Fatalf("%d-way sharded render diverged\n--- single ---\n%s\n--- merged ---\n%s", parts, want, got)
		}
		if got, want := merged.Covered(), (BlockRange{From: 1, To: int64(len(blocks))}); got != want {
			t.Fatalf("merged covered range %s, want %s", got, want)
		}
	}
}

func TestShardCodecRoundTripEOS(t *testing.T) {
	testShardCodecRoundTrip(t, "eos", genEOSBlocks(64))
}

func TestShardCodecRoundTripTezos(t *testing.T) {
	testShardCodecRoundTrip(t, "tezos", genTezosBlocks(64))
}

func TestShardCodecRoundTripXRP(t *testing.T) {
	testShardCodecRoundTrip(t, "xrp", genXRPLedgers(64))
}

// TestShardCodecXRPExchanges covers the aggregator-only exchange records:
// an XRP shard that absorbed explorer exchanges must carry them through
// encode/decode (they feed the rate oracle behind Figure 7).
func TestShardCodecXRPExchanges(t *testing.T) {
	agg := NewXRPAggregator(chain.ObservationStart, 6*time.Hour)
	if err := agg.IngestBatch(asBatch(genXRPLedgers(16))); err != nil {
		t.Fatal(err)
	}
	agg.AddExchanges(genExchanges(8))
	agg.XRPShard.SetCovered(BlockRange{From: 1, To: 16})
	blob := encodeState(t, &agg.XRPShard)
	dec, err := DecodeShard(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(dec.(*XRPShard).exchanges), len(agg.exchanges); got != want {
		t.Fatalf("decoded %d exchanges, want %d", got, want)
	}
	if got, want := dec.Summary().Render(), agg.XRPShard.Summary().Render(); got != want {
		t.Fatalf("render diverged after exchange round-trip\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestShardDecodeRejectsDamage: every structural failure mode errors and
// none panics — truncation at each length, a flipped bit at each byte, a
// future version, trailing junk, and a chain mismatch.
func TestShardDecodeRejectsDamage(t *testing.T) {
	st, err := NewShardState("eos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.IngestBatch(asBatch(genEOSBlocks(8))); err != nil {
		t.Fatal(err)
	}
	st.SetCovered(BlockRange{From: 1, To: 8})
	blob := encodeState(t, st)

	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(blob); n++ {
			if _, err := DecodeShard(blob[:n]); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(blob))
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for i := range blob {
			dam := bytes.Clone(blob)
			dam[i] ^= 0x40
			if _, err := DecodeShard(dam); err == nil {
				t.Fatalf("flipping a bit in byte %d/%d decoded without error", i, len(blob))
			}
		}
	})
	t.Run("trailing junk", func(t *testing.T) {
		if _, err := DecodeShard(append(bytes.Clone(blob), 0xAB)); err == nil {
			t.Fatal("trailing junk decoded without error")
		}
	})
	t.Run("future version", func(t *testing.T) {
		// Hand-seal an envelope with a version this build does not read;
		// checksum and structure are otherwise valid.
		future := []byte(wire.ShardMagic)
		future = binary.AppendUvarint(future, wire.ShardVersion+1)
		future = binary.AppendUvarint(future, uint64(len("eos")))
		future = append(future, "eos"...)
		future = binary.AppendUvarint(future, 3)
		future = append(future, 1, 2, 3)
		future = binary.LittleEndian.AppendUint32(future, crc32.ChecksumIEEE(future))
		_, err := DecodeShard(future)
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("future version error = %v, want version error", err)
		}
	})
	t.Run("chain mismatch", func(t *testing.T) {
		other := &TezosShard{}
		other.init(chain.ObservationStart, 6*time.Hour)
		if err := other.DecodeFrom(bytes.NewReader(blob)); err == nil {
			t.Fatal("decoding an eos blob into a tezos shard succeeded")
		}
	})
	t.Run("unknown chain", func(t *testing.T) {
		alien := wire.SealShard("doge", []byte{1, 2, 3})
		if _, err := DecodeShard(alien); err == nil {
			t.Fatal("unknown-chain blob decoded without error")
		}
	})
}

// TestMergeShardsValidation exercises the coordinator's refusal matrix.
func TestMergeShardsValidation(t *testing.T) {
	mk := func(chainName string, from, to int64, origin time.Time, bucket time.Duration) ShardState {
		st, err := NewShardState(chainName, origin, bucket)
		if err != nil {
			t.Fatal(err)
		}
		if from > 0 {
			st.SetCovered(BlockRange{From: from, To: to})
		}
		return st
	}
	o := chain.ObservationStart
	cases := []struct {
		name    string
		shards  []ShardState
		wantErr string
	}{
		{"empty", nil, "no shards"},
		{"chain mismatch", []ShardState{mk("eos", 1, 10, o, time.Hour), mk("tezos", 11, 20, o, time.Hour)}, "different chains"},
		{"window mismatch", []ShardState{mk("eos", 1, 10, o, time.Hour), mk("eos", 11, 20, o, 2*time.Hour)}, "mismatched windows"},
		{"unknown range", []ShardState{mk("eos", 1, 10, o, time.Hour), mk("eos", 0, 0, o, time.Hour)}, "no covered block range"},
		{"overlap", []ShardState{mk("eos", 1, 10, o, time.Hour), mk("eos", 10, 20, o, time.Hour)}, "overlap"},
		{"gap", []ShardState{mk("eos", 1, 10, o, time.Hour), mk("eos", 12, 20, o, time.Hour)}, "gap"},
		{"contiguous ok", []ShardState{mk("eos", 11, 20, o, time.Hour), mk("eos", 1, 10, o, time.Hour)}, ""},
		{"single ok", []ShardState{mk("xrp", 5, 9, o, time.Hour)}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := MergeShards(tc.shards)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestEmitShardCrossBackend: the same shard state emitted to mem:// and
// file:// stores lands byte-identical — the blob depends only on the
// state, never on the backend.
func TestEmitShardCrossBackend(t *testing.T) {
	ctx := context.Background()
	st, err := NewShardState("tezos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.IngestBatch(asBatch(genTezosBlocks(32))); err != nil {
		t.Fatal(err)
	}
	st.SetCovered(BlockRange{From: 1, To: 32})

	locations := []string{
		"mem://shard-cross-backend",
		"file://" + t.TempDir(),
	}
	var blobs [][]byte
	for _, loc := range locations {
		key, err := EmitShard(ctx, loc, st)
		if err != nil {
			t.Fatalf("emit to %s: %v", loc, err)
		}
		store, err := blobstore.Resolve(loc)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := store.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)

		loaded, err := LoadShards(ctx, loc)
		if err != nil {
			t.Fatal(err)
		}
		if len(loaded) != 1 {
			t.Fatalf("loaded %d shards from %s, want 1", len(loaded), loc)
		}
		if got, want := loaded[0].Summary().Render(), st.Summary().Render(); got != want {
			t.Fatalf("render diverged after %s round-trip", loc)
		}
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("mem:// and file:// shard blobs differ (%d vs %d bytes)", len(blobs[0]), len(blobs[1]))
	}
}

// TestEmitShardRequiresRange: emitting a shard that never learned its
// partition must refuse — the coordinator could not validate it.
func TestEmitShardRequiresRange(t *testing.T) {
	st, err := NewShardState("eos", chain.ObservationStart, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EmitShard(context.Background(), "mem://shard-no-range", st); err == nil {
		t.Fatal("emitting a shard without a covered range succeeded")
	}
}

// FuzzShardDecode drives arbitrary bytes through the whole decode path:
// any input may error but must never panic, and anything that decodes must
// re-encode cleanly (no partially-initialized state escapes).
func FuzzShardDecode(f *testing.F) {
	for _, seed := range [][]byte{
		{}, []byte("SHRD"), []byte("not a shard at all"),
	} {
		f.Add(seed)
	}
	eos, _ := NewShardState("eos", chain.ObservationStart, 6*time.Hour)
	_ = eos.IngestBatch(asBatch(genEOSBlocks(4)))
	eos.SetCovered(BlockRange{From: 1, To: 4})
	tez, _ := NewShardState("tezos", chain.ObservationStart, 6*time.Hour)
	_ = tez.IngestBatch(asBatch(genTezosBlocks(4)))
	tez.SetCovered(BlockRange{From: 1, To: 4})
	xr, _ := NewShardState("xrp", chain.ObservationStart, 6*time.Hour)
	_ = xr.IngestBatch(asBatch(genXRPLedgers(4)))
	xr.SetCovered(BlockRange{From: 1, To: 4})
	for _, st := range []ShardState{eos, tez, xr} {
		var buf bytes.Buffer
		if err := st.EncodeTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		st, err := DecodeShard(blob)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := st.EncodeTo(&buf); err != nil {
			t.Fatalf("decoded state failed to re-encode: %v", err)
		}
		_ = st.Summary().Render()
	})
}

// benchState builds one populated shard state per chain for the codec
// benchmarks — the same generators the round-trip property tests use, so
// the benchmarked payload mirrors a real drained shard.
func benchState(b *testing.B, chainName string) ShardState {
	b.Helper()
	st, err := NewShardState(chainName, chain.ObservationStart, 6*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	var batch []any
	switch chainName {
	case "eos":
		batch = asBatch(genEOSBlocks(64))
	case "tezos":
		batch = asBatch(genTezosBlocks(64))
	case "xrp":
		batch = asBatch(genXRPLedgers(64))
	}
	if err := st.IngestBatch(batch); err != nil {
		b.Fatal(err)
	}
	st.SetCovered(BlockRange{From: 1, To: 64})
	return st
}

// BenchmarkShardEncode measures serializing a drained shard state into a
// sealed blob — the per-shard cost a distributed crawl pays at exit.
func BenchmarkShardEncode(b *testing.B) {
	for _, chainName := range []string{"eos", "tezos", "xrp"} {
		b.Run(chainName, func(b *testing.B) {
			st := benchState(b, chainName)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := st.EncodeTo(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardDecode measures the coordinator's per-shard cost: open the
// envelope, validate, and rebuild the state.
func BenchmarkShardDecode(b *testing.B) {
	for _, chainName := range []string{"eos", "tezos", "xrp"} {
		b.Run(chainName, func(b *testing.B) {
			st := benchState(b, chainName)
			var buf bytes.Buffer
			if err := st.EncodeTo(&buf); err != nil {
				b.Fatal(err)
			}
			blob := buf.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeShard(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardMerge measures the coordinator folding three decoded
// shards into one state. Merge consumes its sources, so each iteration
// decodes fresh copies; subtract BenchmarkShardDecode×3 for the pure
// merge cost.
func BenchmarkShardMerge(b *testing.B) {
	for _, chainName := range []string{"eos", "tezos", "xrp"} {
		b.Run(chainName, func(b *testing.B) {
			blobs := make([][]byte, 3)
			for i := range blobs {
				st, err := NewShardState(chainName, chain.ObservationStart, 6*time.Hour)
				if err != nil {
					b.Fatal(err)
				}
				var batch []any
				switch chainName {
				case "eos":
					batch = asBatch(genEOSBlocks(64))
				case "tezos":
					batch = asBatch(genTezosBlocks(64))
				case "xrp":
					batch = asBatch(genXRPLedgers(64))
				}
				if err := st.IngestBatch(batch); err != nil {
					b.Fatal(err)
				}
				st.SetCovered(BlockRange{From: int64(64*i + 1), To: int64(64 * (i + 1))})
				var buf bytes.Buffer
				if err := st.EncodeTo(&buf); err != nil {
					b.Fatal(err)
				}
				blobs[i] = buf.Bytes()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shards := make([]ShardState, len(blobs))
				for j, blob := range blobs {
					st, err := DecodeShard(blob)
					if err != nil {
						b.Fatal(err)
					}
					shards[j] = st
				}
				if _, err := MergeShards(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// genExchanges fabricates explorer exchange records for the XRP tests.
func genExchanges(n int) []xrp.Exchange {
	out := make([]xrp.Exchange, n)
	for i := range out {
		out[i] = xrp.Exchange{
			Time:          chain.ObservationStart.Add(time.Duration(i) * time.Hour),
			LedgerIndex:   int64(i + 1),
			Base:          xrp.AssetKey{Currency: "BTC", Issuer: "rGateway"},
			Counter:       xrp.AssetKey{Currency: "XRP"},
			BaseValue:     int64(1_000_000 + i),
			CounterValue:  int64(9_000_000 * (i + 1)),
			Maker:         xrp.Address(fmt.Sprintf("rMaker%d", i%3)),
			Taker:         xrp.Address(fmt.Sprintf("rTaker%d", i%2)),
			MakerSequence: uint32(100 + i),
		}
	}
	return out
}
