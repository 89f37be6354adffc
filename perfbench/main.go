// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against simulated chain histories built from a seed,
// checks that every figure it produces matches a reference pass byte for
// byte, and prints one JSON line of metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload crawl --seed 1 --seconds 15 --trace 0
//
// Everything runs in one process: the chain endpoints, the crawlers, the
// coordinator and its workers, and the serving API with its query
// generator. With --trace 0 the run measures the program as it is and
// prints the end-to-end metrics; with --trace 1 it alternates untraced
// iterations with traced ones, where every layer is reached through the
// wrappers in trace.go and a CPU profile is taken, and prints the
// per-layer metrics. README.md describes each metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are perfbench's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// traceDir receives the span dump of a traced run.
	traceDir string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the simulated chain histories")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1: run traced and print the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	o.traceDir = filepath.Join(".bench_build", "perfbench")
	if !slices.Contains(workloadNames, o.workload) || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(context.Background(), cfg, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// report is the JSON line perfbench prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// iteration is one measured workload iteration.
type iteration struct {
	iterResult
	wall, cpu time.Duration
	alloc     uint64
	gcCPU     float64
	gcCycles  uint64
	// layerCPU is the traced iteration's CPU profile split by layer.
	layerCPU map[string]float64
}

// run measures the workload for o.seconds of iterations. It sets up
// cfg.SetupReps times, spread evenly over the measured phase, so setup_s
// samples the same stretch of machine time as the iterations; each
// iteration runs over the latest setup.
func run(ctx context.Context, cfg Config, o options) (*report, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, time.Now().UnixNano()))
	}
	r := &runner{cfg: cfg}
	defer func() {
		if r.env != nil {
			r.env.close()
		}
	}()
	var setups, builds, sims []float64
	resetup := func() error {
		if r.env != nil {
			r.env.close()
			r.env = nil
		}
		// Each setup starts from a collected heap, as in a fresh process,
		// so the previous setup's garbage does not pace its collections.
		runtime.GC()
		runtime.GC()
		start := time.Now()
		e, err := setup(cfg, o.seed, tr)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		builds = append(builds, e.buildS)
		sims = append(sims, e.simulateS)
		r.env = e
		return nil
	}

	var plain, traced []iteration
	total := time.Duration(o.seconds * float64(time.Second))
	var measured time.Duration
	for len(plain) == 0 || measured < total {
		if n := len(setups); n < cfg.SetupReps && measured >= time.Duration(n)*total/time.Duration(cfg.SetupReps) {
			if err := resetup(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		it, err := measure(ctx, r, o.workload, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, it)
		if o.trace {
			if it, err = measure(ctx, r, o.workload, tr); err != nil {
				return nil, err
			}
			traced = append(traced, it)
		}
		measured += time.Since(start)
	}
	for len(setups) < cfg.SetupReps {
		if err := resetup(); err != nil {
			return nil, err
		}
	}

	rep := &report{Correct: true, Metrics: make(map[string]metric)}
	for _, it := range append(slices.Clone(plain), traced...) {
		rep.Attempted += it.attempted
		rep.Failed += it.failed
		if it.mismatch != "" {
			if rep.Correct {
				fmt.Fprintln(os.Stderr, "perfbench:", it.mismatch)
			}
			rep.Correct = false
		}
	}
	if !o.trace {
		rep.set("setup_s", median(setups))
		rep.set("wall_s", median(pick(plain, wallSeconds)))
		rep.set("cpu_s", median(pick(plain, func(it iteration) float64 { return it.cpu.Seconds() })))
		rep.set("alloc_mb", median(pick(plain, func(it iteration) float64 { return float64(it.alloc) / 1e6 })))
		rep.set("peak_rss_mb", peakRSSMB())
		return rep, nil
	}

	spans, counters := tr.snapshot()
	layerMetrics(rep, spans, counters, traced)
	rep.set("workload.build_s", median(builds))
	rep.set("workload.simulate_s", median(sims))
	rep.set("fail_ratio", float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	var lat []time.Duration
	var lateMax time.Duration
	var ingestQueries int64
	for _, it := range plain {
		lat = append(lat, it.latencies...)
		lateMax = max(lateMax, it.lateMax)
		ingestQueries += it.ingestQueries
	}
	for _, it := range traced {
		lateMax = max(lateMax, it.lateMax)
	}
	rep.set("query_p50_ms", percentile(lat, 50).Seconds()*1e3)
	rep.set("query_p99_ms", percentile(lat, 99).Seconds()*1e3)
	rep.set("query_samples", float64(len(lat)))
	rep.set("loadgen.late_max_ms", lateMax.Seconds()*1e3)
	rep.set("loadgen.ingest_queries", float64(ingestQueries)/float64(len(plain)))
	rep.set("trace.overhead_ratio", median(pick(traced, wallSeconds))/median(pick(plain, wallSeconds))-1)
	rep.set("trace.spans", float64(len(spans))/float64(len(traced)))

	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, tr.runID, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return rep, nil
}

func (rep *report) set(name string, v float64) {
	rep.Metrics[name] = metric{Value: v, Unit: metricUnits[name]}
}

// measure runs one iteration, timing wall clock, process CPU and
// allocation. A traced iteration records its spans under a fresh root span
// and takes a CPU profile.
func measure(ctx context.Context, r *runner, workload string, tr *tracer) (iteration, error) {
	r.tr = tr
	// Two collections empty every sync.Pool (the first moves pooled objects
	// to the victim cache, the second drops them), so each iteration starts
	// with cold pools, as a fresh cmd/crawl or cmd/report process does. With
	// one collection, pooled objects would survive every other iteration
	// and allocation would alternate between two levels.
	runtime.GC()
	runtime.GC()
	var prof *cpuProfile
	if tr != nil {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			return iteration{}, err
		}
	}
	root := tr.begin(0, "iteration."+workload)
	if tr != nil {
		tr.root.Store(root.id())
	}
	var it iteration
	before := readRuntime()
	cpu0 := processCPU()
	start := time.Now()
	stopped := false
	r.stopClock = func() {
		if stopped {
			return
		}
		stopped = true
		it.wall = time.Since(start)
		it.cpu = processCPU() - cpu0
		after := readRuntime()
		it.alloc = after.alloc - before.alloc
		it.gcCPU = after.gcCPU - before.gcCPU
		it.gcCycles = after.gcCycles - before.gcCycles
	}
	res, err := r.run(ctx, workload)
	r.stopClock()
	root.end(0)
	it.iterResult = res
	if prof != nil {
		var perr error
		it.layerCPU, perr = prof.stop()
		if err == nil {
			err = perr
		}
	}
	return it, err
}

type runtimeStats struct {
	alloc    uint64
	gcCPU    float64
	gcCycles uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeStats{alloc: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), gcCycles: s[2].Value.Uint64()}
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

func wallSeconds(it iteration) float64 { return it.wall.Seconds() }

func pick(its []iteration, f func(iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile.
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(float64(len(s))*p/100+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}
