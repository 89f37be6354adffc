package pipeline

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/xrp"
)

// Paper-reported reference values, used in the rendered tables so every
// output can be eyeballed against the original.
var paperFigure1 = map[string]map[string]float64{
	"eos":   {"transfer": 91.6, "others": 8.3},
	"tezos": {"endorsement": 81.7, "transaction": 16.2},
	"xrp":   {"OfferCreate": 50.4, "Payment": 46.2, "TrustSet": 1.9, "OfferCancel": 1.5},
}

func table(fn func(w *tabwriter.Writer)) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fn(w)
	w.Flush()
	return sb.String()
}

// Figure1 renders the transaction-type distribution for all three chains.
func Figure1(r *Result) string {
	out := "Figure 1 — Distribution of transaction types per blockchain\n"
	out += table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "chain\ttype\tcount\tshare\tpaper")
		emit := func(chain, name string, count, total int64) {
			share := 100 * float64(count) / float64(total)
			ref := ""
			if p, ok := paperFigure1[chain][name]; ok {
				ref = fmt.Sprintf("%.1f%%", p)
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%.1f%%\t%s\n", chain, name, count, share, ref)
		}
		for _, row := range sortedCounts(r.EOS.ActionsByName) {
			emit("eos", row.name, row.count, r.EOS.Actions)
		}
		for _, row := range sortedCounts(r.Tezos.OpsByKind) {
			emit("tezos", row.name, row.count, r.Tezos.Operations)
		}
		for _, row := range sortedCounts(r.XRP.TxByType) {
			emit("xrp", row.name, row.count, r.XRP.Transactions)
		}
	})
	return out
}

type countRow struct {
	name  string
	count int64
}

func sortedCounts(m map[string]int64) []countRow {
	rows := make([]countRow, 0, len(m))
	for k, v := range m {
		rows = append(rows, countRow{k, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// Figure2 renders the dataset characterization, scaled and extrapolated.
// Its gzip bytes are the stage archive's compressed segment bytes; "-"
// marks a replayed archive too old to record them.
func Figure2(r *Result) string {
	out := "Figure 2 — Characterizing the datasets (scaled run; ×scale ≈ main net)\n"
	out += table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "chain\tscale\tblocks\ttxs\tgzip bytes\tblocks ×scale\ttxs ×scale\tpaper blocks\tpaper txs")
		fmt.Fprintf(w, "EOS\t%d\t%d\t%d\t%s\t%.3g\t%.3g\t16,299,999\t376,819,512\n",
			r.Opts.EOS.Scale, r.EOSCrawl.Blocks, r.EOS.Transactions, sizeCell(r.EOSCrawl.GzipBytes),
			float64(r.EOSCrawl.Blocks)*float64(r.Opts.EOS.Scale),
			float64(r.EOS.Transactions)*float64(r.Opts.EOS.Scale))
		fmt.Fprintf(w, "Tezos\t%d\t%d\t%d\t%s\t%.3g\t%.3g\t131,801\t3,345,019\n",
			r.Opts.Tezos.Scale, r.TezosCrawl.Blocks, r.Tezos.Operations, sizeCell(r.TezosCrawl.GzipBytes),
			float64(r.TezosCrawl.Blocks)*float64(r.Opts.Tezos.Scale),
			float64(r.Tezos.Operations)*float64(r.Opts.Tezos.Scale))
		fmt.Fprintf(w, "XRP\t%d\t%d\t%d\t%s\t%.3g\t%.3g\t2,031,069\t151,324,595\n",
			r.Opts.XRP.Scale, r.XRPCrawl.Blocks, r.XRP.Transactions, sizeCell(r.XRPCrawl.GzipBytes),
			float64(r.XRPCrawl.Blocks)*float64(r.Opts.XRP.Scale),
			float64(r.XRP.Transactions)*float64(r.Opts.XRP.Scale))
	})
	return out
}

// sizeCell renders a byte count, or "-" when it is unknown (negative).
func sizeCell(n int64) string {
	if n < 0 {
		return "-"
	}
	return strconv.FormatInt(n, 10)
}

// sparkline renders per-bucket totals as a compact ASCII series.
func sparkline(ts *stats.TimeSeries, label string) string {
	rows := ts.Rows()
	if len(rows) == 0 {
		return "(empty)"
	}
	var max int64 = 1
	for _, row := range rows {
		if v := row.Counts[label]; v > max {
			max = v
		}
	}
	marks := []rune(" .:-=+*#%@")
	var sb strings.Builder
	for _, row := range rows {
		idx := int(row.Counts[label] * int64(len(marks)-1) / max)
		sb.WriteRune(marks[idx])
	}
	return sb.String()
}

// Figure3 renders the three throughput-over-time panels.
func Figure3(r *Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 3 — Throughput across time (one char per bucket, height ∝ count)\n")
	sb.WriteString("(a) EOS by app category:\n")
	for _, label := range r.EOS.Series.Labels() {
		sb.WriteString(fmt.Sprintf("  %-12s |%s| total %d\n", label, sparkline(r.EOS.Series, label), r.EOS.Series.Total(label)))
	}
	if shift, ok := stats.DetectRegimeShift(stats.TotalValues(r.EOS.Series), 8); ok {
		sb.WriteString(fmt.Sprintf("  regime shift at bucket %d (%s): %.0f -> %.0f actions/bucket, ×%.1f (paper: >10× at Nov 1)\n",
			shift.Bucket, r.EOS.Series.BucketStart(shift.Bucket).Format("2006-01-02"), shift.Before, shift.After, shift.Ratio))
	}
	sb.WriteString("(b) Tezos by operation group:\n")
	for _, label := range r.Tezos.Series.Labels() {
		sb.WriteString(fmt.Sprintf("  %-12s |%s| total %d\n", label, sparkline(r.Tezos.Series, label), r.Tezos.Series.Total(label)))
	}
	sb.WriteString("(c) XRP by transaction outcome:\n")
	for _, label := range r.XRP.Series.Labels() {
		sb.WriteString(fmt.Sprintf("  %-15s |%s| total %d\n", label, sparkline(r.XRP.Series, label), r.XRP.Series.Total(label)))
	}
	return sb.String()
}

// Figure4 renders the EOS top applications.
func Figure4(r *Result) string {
	out := "Figure 4 — EOS top applications by received actions\n"
	out += table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "contract\tcategory\treceived\ttop actions")
		for _, p := range r.EOS.TopReceivers(8) {
			var actions []string
			for i, a := range p.Actions {
				if i == 3 {
					break
				}
				actions = append(actions, fmt.Sprintf("%s %.1f%%", a.Name, 100*float64(a.Count)/float64(p.Total)))
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%s\n", p.Contract, p.Label, p.Total, strings.Join(actions, ", "))
		}
	})
	return out
}

// Figure5 renders the EOS top sender→receiver pairs.
func Figure5(r *Result) string {
	out := "Figure 5 — EOS account pairs with the highest number of sent actions\n"
	out += table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "sender\tsent\tunique receivers\ttop receivers")
		for _, p := range r.EOS.TopSenderPairs(6, 3) {
			var recvs []string
			for _, rc := range p.Receivers {
				recvs = append(recvs, fmt.Sprintf("%s %.1f%%", rc.Receiver, 100*float64(rc.Count)/float64(p.Sent)))
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%s\n", p.Sender, p.Sent, p.UniqueReceivers, strings.Join(recvs, ", "))
		}
	})
	return out
}

// Figure6 renders the Tezos top senders with fan-out statistics.
func Figure6(r *Result) string {
	out := "Figure 6 — Tezos accounts with the highest number of sent transactions\n"
	out += table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "sender\tsent\tunique receivers\tavg/receiver\tstdev")
		for _, p := range r.Tezos.TopSenders(6) {
			fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\t%.2f\n",
				shorten(p.Sender), p.Sent, p.UniqueReceivers, p.AvgPerReceiver, p.StdevPerReceiver)
		}
	})
	return out
}

func shorten(addr string) string {
	if len(addr) > 18 {
		return addr[:18] + "…"
	}
	return addr
}

// Figure7 renders the XRP value decomposition.
func Figure7(r *Result) string {
	d := r.XRP.Decompose()
	var sb strings.Builder
	sb.WriteString("Figure 7 — XRP throughput decomposition (measured | paper)\n")
	rows := []struct {
		name     string
		measured float64
		paper    float64
	}{
		{"failed", d.FailedShare, 0.107},
		{"successful", d.SuccessfulShare, 0.893},
		{"payments with value", d.PaymentsWithValue, 0.021},
		{"payments no value", d.PaymentsNoValue, 0.360},
		{"offers exchanged", d.OffersExchanged, 0.001},
		{"offers no exchange", d.OffersNoExchange, 0.494},
		{"others successful", d.OthersSuccessful, 0.017},
		{"economic share", d.EconomicShare, 0.023},
	}
	for _, row := range rows {
		sb.WriteString(fmt.Sprintf("  %-22s %6.2f%% | %5.1f%%\n", row.name, 100*row.measured, 100*row.paper))
	}
	sb.WriteString(fmt.Sprintf("  %-22s %6.2f%% | %5.1f%%\n", "offer fulfillment", 100*d.OfferFulfillmentRate, 0.2))
	sb.WriteString(fmt.Sprintf("  %-22s %6.2f%% | %5.1f%%  (\"1 in 19\")\n", "valuable payments", 100*d.ValuablePaymentRate, 5.5))
	return sb.String()
}

// Figure8 renders the most active XRP accounts.
func Figure8(r *Result) string {
	out := "Figure 8 — Most active accounts on the XRP ledger\n"
	out += table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "account\tcluster\ttotal\toffer share\tdest tag")
		for _, p := range r.XRP.TopAccounts(10) {
			cluster := r.Dir.ClusterName(xrp.Address(p.Account))
			tag := ""
			if p.DominantDestTag != 0 {
				tag = fmt.Sprintf("%d", p.DominantDestTag)
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%.1f%%\t%s\n",
				shorten(p.Account), cluster, p.Total, 100*p.OfferShare, tag)
		}
	})
	shares := r.XRP.TrafficShares()
	conc := core.Concentration(shares, 18)
	out += fmt.Sprintf("  top-18 accounts carry %.0f%% of traffic (paper: ~50%%), Gini %.2f, %d accounts\n",
		100*conc.TopKShare, conc.Gini, conc.Accounts)
	return out
}

// Figure9 renders the Babylon governance vote series.
func Figure9(r *Result) string {
	if r.Gov == nil {
		return "Figure 9 — (governance replay skipped)\n"
	}
	var sb strings.Builder
	sb.WriteString("Figure 9 — Tezos Babylon amendment votes (rolls, cumulative by day)\n")
	day := 24 * time.Hour
	prop := r.Gov.VoteSeries("proposals", day)
	sb.WriteString("(a) proposal period upvotes:\n")
	for _, label := range prop.Labels() {
		sb.WriteString(fmt.Sprintf("  %-10s |%s| total %d rolls\n", label, sparkline(prop, label), prop.Total(label)))
	}
	ballots := r.Gov.VoteSeries("ballot", day)
	sb.WriteString("(b/c) exploration + promotion ballots:\n")
	for _, label := range ballots.Labels() {
		sb.WriteString(fmt.Sprintf("  %-10s |%s| total %d rolls\n", label, sparkline(ballots, label), ballots.Total(label)))
	}
	return sb.String()
}

// Figure11 renders the IOU rate tables.
func Figure11(r *Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 11a — Average XRP rate of BTC IOUs by issuer (December)\n")
	for _, ir := range r.XRP.IssuerRates("BTC") {
		name := r.Dir.ClusterName(xrp.Address(ir.Issuer))
		sb.WriteString(fmt.Sprintf("  %-28s %12.1f XRP  (%d trades)\n", name, ir.Rate, ir.Trades))
	}
	sb.WriteString("Figure 11b — Same-issuer BTC IOU rate over time (Myrone):\n")
	if r.XRPScenario != nil {
		key := xrp.AssetKey{Currency: "BTC", Issuer: r.XRPScenario.MyroneIssuer}
		for _, row := range r.XRP.RateSeries(key) {
			sb.WriteString(fmt.Sprintf("  %s  %10.1f XRP\n",
				row.Start.Format("2006-01-02"), float64(row.Counts["rate_millis"])/1000))
		}
	}
	sb.WriteString("  (paper: 30,500 XRP on 2019-12-14 collapsing to 0.1 within a month)\n")
	return sb.String()
}

// Figure12 renders the value-flow aggregation.
func Figure12(r *Result) string {
	flow := r.XRP.ValueFlow(r.ClusterFunc(), 8)
	var sb strings.Builder
	scale := float64(r.Opts.XRP.Scale)
	sb.WriteString(fmt.Sprintf("Figure 12 — XRP value flow (scaled run; ×%d ≈ main net)\n", r.Opts.XRP.Scale))
	sb.WriteString(fmt.Sprintf("  total volume: %.3g XRP scaled (≈ %.3g full-scale; paper: 43B XRP + IOU flows)\n",
		flow.TotalXRPVolume, flow.TotalXRPVolume*scale))
	sb.WriteString("  top senders:\n")
	for _, e := range flow.Senders {
		sb.WriteString(fmt.Sprintf("    %-28s %14.0f XRP (%.1f%%)\n", e.Name, e.XRPVolume, 100*e.XRPVolume/flow.TotalXRPVolume))
	}
	sb.WriteString("  top receivers:\n")
	for _, e := range flow.Receivers {
		sb.WriteString(fmt.Sprintf("    %-28s %14.0f XRP (%.1f%%)\n", e.Name, e.XRPVolume, 100*e.XRPVolume/flow.TotalXRPVolume))
	}
	sb.WriteString("  currencies:\n")
	for _, e := range flow.Currencies {
		sb.WriteString(fmt.Sprintf("    %-8s %14.0f XRP-equivalent\n", e.Name, e.XRPVolume))
	}
	return sb.String()
}

// HeadlineTPS renders the §3 throughput summary.
func HeadlineTPS(r *Result) string {
	var sb strings.Builder
	sb.WriteString("Headline TPS (full-scale estimate | paper)\n")
	eos := core.EstimatedFullScaleTPS(r.EOS.Transactions, r.EOS.FirstBlockTime, r.EOS.LastBlockTime, r.Opts.EOS.Scale)
	tez := core.EstimatedFullScaleTPS(r.Tezos.Operations, r.Tezos.FirstBlockTime, r.Tezos.LastBlockTime, r.Opts.Tezos.Scale)
	xrpTPS := core.EstimatedFullScaleTPS(r.XRP.Transactions, r.XRP.FirstLedgerTime, r.XRP.LastLedgerTime, r.Opts.XRP.Scale)
	sb.WriteString(fmt.Sprintf("  EOS   %8.1f tx/s | ~47 tx/s incl. EIDOS era (headline 20)\n", eos))
	sb.WriteString(fmt.Sprintf("  Tezos %8.2f op/s | 0.42 op/s total ops; headline 0.08 TPS for transactions\n", tez))
	sb.WriteString(fmt.Sprintf("  XRP   %8.1f tx/s | ~19 tx/s\n", xrpTPS))
	return sb.String()
}

// CaseStudies renders the §4.1 findings.
func CaseStudies(r *Result) string {
	var sb strings.Builder
	sb.WriteString("§4.1 — WhaleEx wash trading\n")
	rep := core.AnalyzeWashTrades(r.EOS.Trades, 5)
	sb.WriteString(fmt.Sprintf("  settled trades: %d, self-trade share %.1f%% (top-5 involvement %.1f%%, paper >70%%)\n",
		rep.TotalTrades, 100*rep.SelfTradeShare, 100*rep.Top5Share))
	for _, w := range rep.TopAccounts {
		sb.WriteString(fmt.Sprintf("    %-14s trades %6d  self %.1f%% (paper: >85%%)\n", w.Account, w.Trades, 100*w.SelfTradeShare))
	}
	for _, bc := range rep.BalanceChanges {
		sb.WriteString(fmt.Sprintf("    %-14s %d/%d currencies with ~zero net balance change\n",
			bc.Account, bc.UnchangedCurrencies, bc.Currencies))
	}
	sb.WriteString("§4.1 — EIDOS boomerang and congestion\n")
	sb.WriteString(fmt.Sprintf("  boomerang transactions: %d (%.1f%% of txs)\n",
		r.EOS.BoomerangTransactions(), 100*float64(r.EOS.BoomerangTransactions())/float64(r.EOS.Transactions)))
	sb.WriteString(fmt.Sprintf("  EIDOS-touching actions: %.1f%% of all actions (paper: 95%% of txs EIDOS-driven)\n",
		100*r.EOS.EIDOSShare()))
	if eosVol := r.EOS.VolumeBySymbol["EOS"]; eosVol > 0 {
		sb.WriteString(fmt.Sprintf("  EOS financial volume: %.0f EOS moved, %.1f%% of it boomerang legs with no net transfer\n",
			eosVol, 100*r.EOS.BoomerangVolume/eosVol))
	}
	if r.EOSScenario != nil {
		c := r.EOSScenario.Chain
		sb.WriteString(fmt.Sprintf("  network congested: %v (utilization %.2f), CPU-rejected txs: %d, rent index %.0f× (paper: 10,000%% spike)\n",
			c.Resources().Congested(), c.Resources().Utilization(), c.RejectedCPU, c.Resources().RentPriceIndex()))
	}
	return sb.String()
}

// SpamClusters renders the extension analysis: self-contained payment
// mills detected from activation parentage plus payment flows (the
// generalization of §4.3's rpJZ5Wy incident).
func SpamClusters(r *Result) string {
	det := core.NewSpamClusterDetector()
	// Parentage comes from the explorer, exactly like the paper's use of
	// XRP Scan account metadata.
	for _, p := range r.XRP.TopAccounts(1 << 20) {
		info := r.Dir.Lookup(xrp.Address(p.Account))
		if info.Parent != "" {
			acct := r.XRPScenario.State.GetAccount(xrp.Address(p.Account))
			when := time.Time{}
			if acct != nil {
				when = acct.Activated
			}
			det.ObserveActivation(string(info.Parent), p.Account, when)
		}
	}
	clusters := det.Detect(r.XRP.PaymentViews())
	var sb strings.Builder
	sb.WriteString("Extension — spam-cluster detection (generalized §4.3)\n")
	if len(clusters) == 0 {
		sb.WriteString("  no self-contained payment mills detected\n")
		return sb.String()
	}
	for _, c := range clusters {
		name := r.Dir.ClusterName(xrp.Address(c.Parent))
		sb.WriteString(fmt.Sprintf("  hub %-28s members=%d internal=%d (%.0f%%) zero-value=%.0f%% activation span=%s\n",
			name, c.Members, c.InternalPayments, 100*c.InternalShare,
			100*c.ZeroValueShare, c.ActivationSpan.Round(time.Hour)))
	}
	sb.WriteString("  (paper: one account activated 5,020 children in a week for meaningless mutual payments)\n")
	return sb.String()
}

// EndpointReport renders the §3.1 endpoint short-listing.
func EndpointReport(r *Result) string {
	var sb strings.Builder
	sb.WriteString("§3.1 — EOS endpoint probing and shortlist\n")
	for _, s := range r.EndpointScores {
		mark := " "
		for _, sl := range r.Shortlisted {
			if sl.URL == s.URL {
				mark = "*"
			}
		}
		sb.WriteString(fmt.Sprintf("  %s %-28s reachable=%v latency=%v success=%.0f%%\n",
			mark, s.URL, s.Reachable, s.Latency.Round(time.Microsecond), 100*s.SuccessRate))
	}
	sb.WriteString(fmt.Sprintf("  shortlisted %d of %d (paper: 6 of 32)\n", len(r.Shortlisted), len(r.EndpointScores)))
	return sb.String()
}

// StageTimings renders the orchestrator's per-stage wall-clock, crawl
// volume and pipeline-side throughput.
func StageTimings(r *Result) string {
	var sb strings.Builder
	sb.WriteString("Stage timings — orchestrator wall-clock per stage\n")
	sb.WriteString(table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "stage\twall-clock\tblocks\ttransactions\tpipeline TPS")
		for _, m := range r.StageMetrics {
			if m.Skipped {
				fmt.Fprintf(w, "%s\t(skipped)\t-\t-\t-\n", m.Name)
				continue
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.0f\n",
				m.Name, m.Elapsed.Round(time.Millisecond), m.Blocks, m.Transactions, m.TPS)
		}
	}))
	return sb.String()
}

// FullReport renders every table and figure.
func FullReport(r *Result) string {
	sections := []string{
		StageTimings(r),
		EndpointReport(r),
		Figure1(r),
		Figure2(r),
		Figure3(r),
		Figure4(r),
		Figure5(r),
		Figure6(r),
		Figure7(r),
		Figure8(r),
		Figure9(r),
		Figure11(r),
		Figure12(r),
		HeadlineTPS(r),
		CaseStudies(r),
		SpamClusters(r),
	}
	return strings.Join(sections, "\n")
}
