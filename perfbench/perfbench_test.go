package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/blobstore"
	"repro/internal/collect"
	"repro/internal/core"
)

// tinyConfig is workloads.json with the chains scaled down, so a test can
// run every workload in seconds.
func tinyConfig(t *testing.T) Config {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chains = []ChainConfig{
		{Name: "eos", Scale: 200_000, Blocks: 80},
		{Name: "tezos", Scale: 4_000, Blocks: 34},
		{Name: "xrp", Scale: 50_000, Blocks: 38},
	}
	cfg.SetupReps = 1
	cfg.Coordinate.CheckpointEvery = 8
	cfg.Serve.PostDrainQueries = 30
	return cfg
}

// benchmarkJSON is the part of BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func units(ms map[string]metric) map[string]string {
	out := make(map[string]string, len(ms))
	for name, m := range ms {
		out[name] = m.Unit
	}
	return out
}

func declaredUnits(ds []declared) map[string]string {
	out := make(map[string]string, len(ds))
	for _, d := range ds {
		out[d.Name] = d.Unit
	}
	return out
}

func sameUnits(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	var diffs []string
	for name, u := range want {
		if got[name] != u {
			diffs = append(diffs, "declared "+name+" ["+u+"], printed ["+got[name]+"]")
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			diffs = append(diffs, "printed undeclared "+name)
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		t.Errorf("%s metrics differ from BENCHMARK.json:\n%s", what, strings.Join(diffs, "\n"))
	}
}

// TestWorkloadsPrintDeclaredMetrics runs every workload once, untraced and
// traced, at a tiny scale, and checks that each run verifies its figures
// and prints exactly the metric names and units BENCHMARK.json declares.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	cfg := tinyConfig(t)
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, perfbench runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, err := run(context.Background(), cfg, options{workload: w, seed: 1, seconds: 0.001, trace: trace, traceDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if trace {
				sameUnits(t, w+" per_layer", units(rep.Metrics), declaredUnits(b.PerLayer))
			} else {
				sameUnits(t, w+" end_to_end", units(rep.Metrics), declaredUnits(b.EndToEnd))
				for name, m := range rep.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w, name, m.Value)
					}
				}
			}
		}
	}
}

// TestTracedRunMatchesUntraced checks that tracing measures the same
// program: traced and untraced iterations both reproduce the reference
// figures byte for byte, and allocate within alloc_mb's bound of each
// other.
func TestTracedRunMatchesUntraced(t *testing.T) {
	// Full scale: at the tiny scale fixed costs (dials, pool refills) make
	// allocation too noisy to compare.
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	var bound float64
	for _, d := range loadBenchmarkJSON(t).EndToEnd {
		if d.Name == "alloc_mb" {
			bound = d.Bound
		}
	}
	tr := newTracer("test")
	e, err := setup(cfg, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	r := &runner{cfg: cfg, env: e}
	for _, w := range []string{"crawl", "replay", "coordinate"} {
		// Alternate untraced and traced iterations; the first pair warms
		// pools and connections and is not compared.
		var plain, traced []float64
		for i := 0; i < 6; i++ {
			for _, t2 := range []*tracer{nil, tr} {
				it, err := measure(context.Background(), r, w, t2)
				if err != nil {
					t.Fatal(err)
				}
				if it.mismatch != "" {
					t.Fatalf("%s traced=%v: %s", w, t2 != nil, it.mismatch)
				}
				if i == 0 {
					continue
				}
				if t2 == nil {
					plain = append(plain, float64(it.alloc))
				} else {
					traced = append(traced, float64(it.alloc))
				}
			}
		}
		p, q := median(plain), median(traced)
		if d := math.Abs(q/p - 1); d > bound {
			t.Errorf("%s: traced iterations allocated %.0f bytes, untraced %.0f: %.1f%% apart, bound %.0f%%",
				w, q, p, 100*d, 100*bound)
		}
	}
}

// recycler is a fetcher with the optional interfaces the real clients
// have: raw-payload ownership and a connection to close.
type recycler struct{ closed bool }

func (*recycler) Head(context.Context) (int64, error)               { return 1, nil }
func (*recycler) FetchBlock(context.Context, int64) ([]byte, error) { return []byte("{}"), nil }
func (*recycler) OwnsRaw() bool                                     { return true }
func (r *recycler) Close() error                                    { r.closed = true; return nil }

// TestWrappersKeepOptionalInterfaces checks that the tracing wrappers
// expose every optional interface the wrapped object has, so the program
// takes the same paths traced as untraced.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	tr := newTracer("test")
	for _, name := range []string{"eos", "tezos", "xrp"} {
		kit, err := newKit(name)
		if err != nil {
			t.Fatal(err)
		}
		var d core.Decoder = newTracedDecoder(kit.Decoder, tr, 0)
		sd, ok := d.(core.ShardedDecoder)
		if !ok {
			t.Fatalf("%s: traced decoder is not a core.ShardedDecoder", name)
		}
		if _, ok := sd.NewShard().(*tracedShard); !ok {
			t.Errorf("%s: traced decoder hands out untraced shards", name)
		}
		if _, ok := d.(core.BatchReleaser); !ok {
			t.Errorf("%s: traced decoder is not a core.BatchReleaser", name)
		}
	}

	inner := &recycler{}
	var f collect.BlockFetcher = &tracedFetcher{inner: inner, t: tr}
	rr, ok := f.(collect.RawRecycler)
	if !ok || !rr.OwnsRaw() {
		t.Error("traced fetcher dropped collect.RawRecycler")
	}
	closeClient(f)
	if !inner.closed {
		t.Error("closing the traced fetcher did not close the client")
	}
	var plain collect.BlockFetcher = &tracedFetcher{inner: collect.NewEOSClient("http://127.0.0.1:1"), t: tr}
	if rr, ok := plain.(collect.RawRecycler); !ok || !rr.OwnsRaw() {
		t.Error("traced EOS client lost raw-payload ownership")
	}
	var _ blobstore.Store = &tracedStore{}
}

// TestCPUAttributionSumsToProfileTotal profiles a traced crawl and checks
// that the per-layer CPU seconds add up to the whole profile.
func TestCPUAttributionSumsToProfileTotal(t *testing.T) {
	cfg := tinyConfig(t)
	tr := newTracer("test")
	e, err := setup(cfg, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	r := &runner{cfg: cfg, env: e, tr: tr}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		if _, err := r.crawl(context.Background()); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	layers, err := attributeCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for l, v := range layers {
		if l != "other" && layerOf("repro/internal/"+l+".F") != l {
			t.Errorf("profile attributed CPU to unknown layer %q", l)
		}
		sum += v
	}
	total := profileTotal(t, buf.Bytes())
	if total <= 0 || math.Abs(sum-total) > 1e-9*total {
		t.Fatalf("layers sum to %v s, profile total %v s", sum, total)
	}
	if layers["collect"]+layers["wire"]+layers["rpcserve"] <= 0 {
		t.Errorf("a crawl profile with no collect, wire or rpcserve time: %v", layers)
	}
}

// profileTotal sums every sample's CPU time.
func profileTotal(t *testing.T, gz []byte) float64 {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range p.samples {
		total += float64(s.values[len(s.values)-1]) / 1e9
	}
	return total
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/collect.(*CrawlHandle).run.func1":   "collect",
		"repro/internal/stats.(*GzipSizer).Write":           "stats",
		"repro/internal/blobstore/s3stub.(*Server).handle":  "blobstore",
		"repro/internal/core.mergeAsShard[go.shape.*uint8]": "core",
		"repro/internal/eos.(*Chain).GetBlock":              "",
		"repro/perfbench.(*tracedDecoder).Decode":           "",
		"runtime.mallocgc":                                  "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFaultyStoreCountsFailures runs the coordinate workload against a
// store whose writes start failing: the run must report failed slices and
// mismatched figures, not crash and not pass.
func TestFaultyStoreCountsFailures(t *testing.T) {
	cfg := tinyConfig(t)
	e, err := setup(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	r := &runner{cfg: cfg, env: e, storeHook: func(st blobstore.Store) blobstore.Store {
		f := blobstore.NewFaulty(st)
		// The run lease and the first run-state checkpoint land; every
		// slice's lease claim then fails.
		f.BreakAfter(blobstore.OpPut, 2, -1, errors.New("injected put failure"))
		return f
	}}
	res, err := r.coordinate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted == 0 || res.failed == 0 || res.mismatch == "" {
		t.Fatalf("faulty store: attempted=%d failed=%d mismatch=%q", res.attempted, res.failed, res.mismatch)
	}
	if ratio := float64(res.failed) / float64(res.attempted); ratio <= 0 {
		t.Fatalf("fail_ratio %v", ratio)
	}
}

// TestServeClockStopsAtDrain checks that the serve workload's measured
// phase ends at the verified drained figures: post-drain queries that take
// at least 1.5 s on the generator's schedule still count as attempted, but
// not toward the iteration's wall time.
func TestServeClockStopsAtDrain(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Serve.PostDrainQueries = int(1.5 * cfg.Serve.RatePerS)
	e, err := setup(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	r := &runner{cfg: cfg, env: e}
	it, err := measure(context.Background(), r, "serve", nil)
	if err != nil {
		t.Fatal(err)
	}
	if it.mismatch != "" || it.failed != 0 || it.attempted < int64(cfg.Serve.PostDrainQueries) {
		t.Fatalf("attempted=%d failed=%d mismatch=%q", it.attempted, it.failed, it.mismatch)
	}
	if it.wall >= 1500*time.Millisecond {
		t.Errorf("wall %v includes the post-drain queries", it.wall)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "coord.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "coord.worker", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "coord.worker", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "blobstore.put", Start: 70, End: 80},
		{ID: 5, Parent: 1, Name: "coord.worker", Start: 90, End: 120},
	}
	if got := selfTimes(spans, "")[1]; got != 100-50-10-10 {
		t.Errorf("self time %v, want 30", got)
	}
	if got := selfTimes(spans, "coord.worker")[1]; got != 100-50-10 {
		t.Errorf("time outside workers %v, want 40", got)
	}
}
