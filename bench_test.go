package repro

// The benchmark harness regenerates every table and figure from the paper's
// evaluation. Each benchmark prints its table once (so `go test -bench=.`
// doubles as the reproduction report) and then measures the cost of the
// analysis that produces it. BenchmarkPipelineEndToEnd measures the whole
// reproduction — workload, simulation, crawl, measurement.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The scales used here are bench-friendly; cmd/report -eos-scale/-xrp-scale
// flags rerun the pipeline at finer scales for tighter convergence.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/wire"
	"repro/internal/xrp"
)

var (
	benchOnce sync.Once
	benchRes  *pipeline.Result
	benchErr  error

	printOnce sync.Map
)

// benchResult runs the pipeline once per test binary at bench scales.
func benchResult(b *testing.B) *pipeline.Result {
	b.Helper()
	benchOnce.Do(func() {
		opts := pipeline.DefaultOptions()
		benchRes, benchErr = pipeline.Run(context.Background(), opts)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRes
}

// printTable emits a figure's rows exactly once across the bench run.
func printTable(name, content string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", content)
	}
}

// BenchmarkFigure1TxTypeDistribution regenerates the per-chain transaction
// type distribution (paper Figure 1).
func BenchmarkFigure1TxTypeDistribution(b *testing.B) {
	r := benchResult(b)
	printTable("fig1", pipeline.Figure1(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pipeline.Figure1(r)
	}
}

// BenchmarkFigure2DatasetCharacterization regenerates the dataset table
// (paper Figure 2): blocks, transactions and gzip footprint per chain.
func BenchmarkFigure2DatasetCharacterization(b *testing.B) {
	r := benchResult(b)
	printTable("fig2", pipeline.Figure2(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pipeline.Figure2(r)
	}
}

// BenchmarkFigure3ThroughputOverTime regenerates the three throughput
// series (paper Figure 3), including the November 1 EIDOS regime change and
// the XRP payment-spam waves.
func BenchmarkFigure3ThroughputOverTime(b *testing.B) {
	r := benchResult(b)
	printTable("fig3", pipeline.Figure3(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pipeline.Figure3(r)
	}
}

// BenchmarkFigure4EOSTopApps regenerates the EOS top-application table
// (paper Figure 4).
func BenchmarkFigure4EOSTopApps(b *testing.B) {
	r := benchResult(b)
	printTable("fig4", pipeline.Figure4(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.EOS.TopReceivers(8)
	}
}

// BenchmarkFigure5EOSTopSenderPairs regenerates the EOS sender→receiver
// pair table (paper Figure 5).
func BenchmarkFigure5EOSTopSenderPairs(b *testing.B) {
	r := benchResult(b)
	printTable("fig5", pipeline.Figure5(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.EOS.TopSenderPairs(6, 3)
	}
}

// BenchmarkFigure6TezosTopSenders regenerates the Tezos top-sender fan-out
// table (paper Figure 6).
func BenchmarkFigure6TezosTopSenders(b *testing.B) {
	r := benchResult(b)
	printTable("fig6", pipeline.Figure6(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Tezos.TopSenders(6)
	}
}

// BenchmarkFigure7XRPValueDecomposition regenerates the XRP value Sankey
// (paper Figure 7): failed share, zero-value payments, unfulfilled offers,
// and the ~2.3 % economic share headline.
func BenchmarkFigure7XRPValueDecomposition(b *testing.B) {
	r := benchResult(b)
	printTable("fig7", pipeline.Figure7(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.XRP.Decompose()
	}
}

// BenchmarkFigure8XRPTopAccounts regenerates the most-active-accounts table
// (paper Figure 8) with Huobi-descendant clustering.
func BenchmarkFigure8XRPTopAccounts(b *testing.B) {
	r := benchResult(b)
	printTable("fig8", pipeline.Figure8(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.XRP.TopAccounts(10)
	}
}

// BenchmarkFigure9TezosGovernance regenerates the Babylon vote series
// (paper Figure 9).
func BenchmarkFigure9TezosGovernance(b *testing.B) {
	r := benchResult(b)
	printTable("fig9", pipeline.Figure9(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Gov.VoteSeries("ballot", 24*time.Hour)
	}
}

// BenchmarkFigure11IOURates regenerates the per-issuer BTC IOU rate table
// and the Myrone rate collapse (paper Figures 11a/11b).
func BenchmarkFigure11IOURates(b *testing.B) {
	r := benchResult(b)
	printTable("fig11", pipeline.Figure11(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.XRP.IssuerRates("BTC")
	}
}

// BenchmarkFigure12XRPValueFlow regenerates the XRP value-flow aggregation
// (paper Figure 12) with explorer-based clustering.
func BenchmarkFigure12XRPValueFlow(b *testing.B) {
	r := benchResult(b)
	printTable("fig12", pipeline.Figure12(r))
	cluster := r.ClusterFunc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.XRP.ValueFlow(cluster, 8)
	}
}

// BenchmarkHeadlineTPS regenerates the §3 throughput summary.
func BenchmarkHeadlineTPS(b *testing.B) {
	r := benchResult(b)
	printTable("tps", pipeline.HeadlineTPS(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.EstimatedFullScaleTPS(r.XRP.Transactions, r.XRP.FirstLedgerTime, r.XRP.LastLedgerTime, r.Opts.XRP.Scale)
	}
}

// BenchmarkCaseWhaleExWashTrading regenerates the §4.1 wash-trading
// analysis: self-trade shares, top-5 concentration, balance changes.
func BenchmarkCaseWhaleExWashTrading(b *testing.B) {
	r := benchResult(b)
	printTable("cases", pipeline.CaseStudies(r))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.AnalyzeWashTrades(r.EOS.Trades, 5)
	}
}

// BenchmarkCaseEIDOSBoomerang measures boomerang detection over the crawled
// EOS corpus (§4.1).
func BenchmarkCaseEIDOSBoomerang(b *testing.B) {
	r := benchResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.EOS.BoomerangTransactions()
		_ = r.EOS.EIDOSShare()
	}
}

// BenchmarkConcentration measures the Gini/top-k concentration statistics
// used for the "18 accounts carry half the traffic" observation.
func BenchmarkConcentration(b *testing.B) {
	r := benchResult(b)
	shares := r.XRP.TrafficShares()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Concentration(shares, 18)
	}
}

// BenchmarkRateOracle measures IOU valuation lookups against the exchange
// record set.
func BenchmarkRateOracle(b *testing.B) {
	r := benchResult(b)
	key := xrp.AssetKey{Currency: "BTC", Issuer: r.XRPScenario.MyroneIssuer}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.XRP.RateToXRP(key)
	}
}

// benchPipelineOpts returns the coarse scales shared by the end-to-end
// benchmarks so a single iteration stays around a second.
func benchPipelineOpts(stageWorkers int) pipeline.Options {
	opts := pipeline.DefaultOptions()
	opts.EOS.Scale = 200_000
	opts.Tezos.Scale = 3_200
	opts.XRP.Scale = 80_000
	opts.Gov.Scale = 1_600
	opts.StageWorkers = stageWorkers
	return opts
}

// BenchmarkPipelineEndToEnd measures the entire reproduction — build the
// three calibrated workloads, simulate the 92-day window, serve the chain
// APIs, probe and shortlist endpoints, crawl everything and aggregate —
// with the stages forced sequential (StageWorkers=1), i.e. the pre-
// orchestrator baseline.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	opts := benchPipelineOpts(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineParallel runs the same reproduction with the stage
// graph unbounded, quantifying the orchestrator's speedup over
// BenchmarkPipelineEndToEnd.
func BenchmarkPipelineParallel(b *testing.B) {
	opts := benchPipelineOpts(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- wire codec micro-benchmarks -----------------------------------------
//
// The hot-path benchmarks behind the PR 4 allocation work: each chain's
// block decode and encode measured through the pooled internal/wire codec
// and through encoding/json side by side, plus the raw→aggregate ingest
// step. The wire/json ratios are the before/after evidence the bench gate
// (cmd/benchgate vs BENCH_baseline.json) defends.

func benchEOSRaw() []byte {
	b := wire.EOSBlockJSON{
		BlockNum: 12345, ID: "00003039abcdef", Previous: "00003038abcdef",
		Timestamp: "2019-10-01T00:00:00.500", Producer: "eosproducer1",
	}
	for i := 0; i < 8; i++ {
		var tx wire.EOSTrxJSON
		tx.Status = "executed"
		tx.Trx.ID = fmt.Sprintf("trx%08d", i)
		tx.Trx.Transaction.Actions = []wire.EOSActionJSON{{
			Account: "eosio.token", Name: "transfer",
			Authorization: []map[string]string{{"actor": "alicealice12", "permission": "active"}},
			Data: map[string]string{
				"from": "alicealice12", "to": "bobbobbob123",
				"quantity": "1.0000 EOS", "memo": "bench",
			},
		}}
		b.Transactions = append(b.Transactions, tx)
	}
	raw, err := json.Marshal(&b)
	if err != nil {
		panic(err)
	}
	return raw
}

func benchTezosRaw() []byte {
	b := wire.TezosBlockJSON{
		Level: 654321, Hash: "BLockHash11", Predecessor: "BLockHash10",
		Timestamp: "2019-10-01T00:00:00Z", Baker: "tz1baker",
	}
	for i := 0; i < 16; i++ {
		b.Operations = append(b.Operations,
			wire.TezosOperationJSON{Kind: "endorsement", Source: "tz1endorser", Level: 654320, SlotCount: 2},
			wire.TezosOperationJSON{Kind: "transaction", Source: "tz1alice", Destination: "tz1bob", Amount: 100000, Fee: 1420})
	}
	raw, err := json.Marshal(&b)
	if err != nil {
		panic(err)
	}
	return raw
}

func benchXRPRaw() []byte {
	l := wire.XRPLedgerJSON{
		LedgerIndex: 50000000, LedgerHash: "LEDGERHASH1", ParentHash: "LEDGERHASH0",
		CloseTime: "2019-10-01T00:00:00Z", TxCount: 8,
	}
	for i := 0; i < 8; i++ {
		l.Transactions = append(l.Transactions, wire.XRPTxJSON{
			Hash: "TXHASH", TransactionType: "Payment", Account: "rAlice",
			Destination: "rBob", DestinationTag: 7, Fee: 10, Sequence: uint32(42),
			Amount: &wire.XRPAmountJSON{Currency: "XRP", Value: 1000000},
			Result: "tesSUCCESS",
		})
	}
	env := struct {
		Ledger wire.XRPLedgerJSON `json:"ledger"`
	}{l}
	raw, err := json.Marshal(env)
	if err != nil {
		panic(err)
	}
	return raw
}

// BenchmarkDecodeEOS measures one EOS block decode: pooled wire codec vs
// encoding/json reflection.
func BenchmarkDecodeEOS(b *testing.B) {
	raw := benchEOSRaw()
	b.Run("wire", func(b *testing.B) {
		c := wire.NewCodec()
		blk := wire.GetEOSBlock()
		defer wire.PutEOSBlock(blk)
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if err := c.DecodeEOSBlock(raw, blk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			var blk wire.EOSBlockJSON
			if err := json.Unmarshal(raw, &blk); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeTezos measures one Tezos block decode, both paths.
func BenchmarkDecodeTezos(b *testing.B) {
	raw := benchTezosRaw()
	b.Run("wire", func(b *testing.B) {
		c := wire.NewCodec()
		blk := wire.GetTezosBlock()
		defer wire.PutTezosBlock(blk)
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if err := c.DecodeTezosBlock(raw, blk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			var blk wire.TezosBlockJSON
			if err := json.Unmarshal(raw, &blk); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeXRP measures one XRP ledger envelope decode, both paths.
func BenchmarkDecodeXRP(b *testing.B) {
	raw := benchXRPRaw()
	b.Run("wire", func(b *testing.B) {
		c := wire.NewCodec()
		led := wire.GetXRPLedger()
		defer wire.PutXRPLedger(led)
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if err := c.DecodeXRPLedgerResult(raw, led); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			var res struct {
				Ledger wire.XRPLedgerJSON `json:"ledger"`
			}
			if err := json.Unmarshal(raw, &res); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncodeEOS measures one EOS block encode: pooled wire codec vs
// encoding/json reflection (the rpcserve get_block hot path).
func BenchmarkEncodeEOS(b *testing.B) {
	var blk wire.EOSBlockJSON
	if err := json.Unmarshal(benchEOSRaw(), &blk); err != nil {
		b.Fatal(err)
	}
	b.Run("wire", func(b *testing.B) {
		c := wire.NewCodec()
		buf := wire.GetBuffer()
		defer wire.PutBuffer(buf)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.B = c.AppendEOSBlock(buf.B[:0], &blk)
		}
		b.SetBytes(int64(len(buf.B)))
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(&blk); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncodeXRP measures one expanded XRP ledger encode, both paths.
func BenchmarkEncodeXRP(b *testing.B) {
	var res struct {
		Ledger wire.XRPLedgerJSON `json:"ledger"`
	}
	if err := json.Unmarshal(benchXRPRaw(), &res); err != nil {
		b.Fatal(err)
	}
	b.Run("wire", func(b *testing.B) {
		c := wire.NewCodec()
		buf := wire.GetBuffer()
		defer wire.PutBuffer(buf)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.B = c.AppendXRPLedger(buf.B[:0], &res.Ledger)
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(&res.Ledger); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIngestEOSRaw measures the full raw→aggregate step for one EOS
// block — decode through the pooled codec, fold into the aggregator,
// release the arena struct — i.e. one unit of the ingest pool's work.
func BenchmarkIngestEOSRaw(b *testing.B) {
	raw := benchEOSRaw()
	agg := core.NewEOSAggregator(chain.ObservationStart, 6*time.Hour)
	ing := core.NewIngestor(agg.Decoder())
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ing.IngestRaw(int64(i)+1, raw); err != nil {
			b.Fatal(err)
		}
	}
}
