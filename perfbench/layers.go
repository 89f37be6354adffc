package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"
)

// metricUnits gives every metric perfbench prints its unit; BENCHMARK.json
// declares the same names and units.
var metricUnits = map[string]string{
	"setup_s":     "s",
	"wall_s":      "s",
	"cpu_s":       "s",
	"alloc_mb":    "MB",
	"peak_rss_mb": "MB",

	"workload.build_s":       "s",
	"workload.simulate_s":    "s",
	"rpcserve.requests":      "count",
	"rpcserve.busy_s":        "s",
	"rpcserve.bytes":         "bytes",
	"collect.fetches":        "count",
	"collect.fetch_s":        "s",
	"collect.fetch_p50_us":   "us",
	"collect.fetch_p99_us":   "us",
	"collect.retries":        "count",
	"collect.failed":         "count",
	"collect.useful_ratio":   "ratio",
	"stats.gzip_in_bytes":    "bytes",
	"stats.gzip_out_bytes":   "bytes",
	"archive.appends":        "count",
	"archive.append_s":       "s",
	"archive.close_s":        "s",
	"archive.segments":       "count",
	"archive.open_s":         "s",
	"blobstore.puts":         "count",
	"blobstore.put_bytes":    "bytes",
	"blobstore.put_s":        "s",
	"blobstore.gets":         "count",
	"blobstore.get_bytes":    "bytes",
	"blobstore.get_s":        "s",
	"blobstore.lists":        "count",
	"wire.decodes":           "count",
	"wire.decode_bytes":      "bytes",
	"wire.decode_s":          "s",
	"core.batches":           "count",
	"core.ingest_s":          "s",
	"core.shard_merge_s":     "s",
	"core.ingest_archive_s":  "s",
	"core.summarize_s":       "s",
	"core.render_s":          "s",
	"coord.tasks":            "count",
	"coord.attempts":         "count",
	"coord.useful_ratio":     "ratio",
	"coord.worker_s":         "s",
	"coord.overhead_s":       "s",
	"coord.lease_puts":       "count",
	"coord.runstate_puts":    "count",
	"coord.checkpoint_puts":  "count",
	"coord.checkpoint_bytes": "bytes",
	"serve.queries":          "count",
	"serve.handler_s":        "s",
	"serve.handler_p99_us":   "us",
	"serve.epochs":           "count",
	"serve.response_bytes":   "bytes",
	"runtime.gc_cpu_s":       "s",
	"runtime.gc_cycles":      "count",
	"rpcserve.cpu_s":         "s",
	"wsrpc.cpu_s":            "s",
	"collect.cpu_s":          "s",
	"stats.cpu_s":            "s",
	"archive.cpu_s":          "s",
	"blobstore.cpu_s":        "s",
	"wire.cpu_s":             "s",
	"core.cpu_s":             "s",
	"coord.cpu_s":            "s",
	"serve.cpu_s":            "s",
	"other.cpu_s":            "s",
	"loadgen.late_max_ms":    "ms",
	"loadgen.ingest_queries": "count",
	"fail_ratio":             "ratio",
	"query_p50_ms":           "ms",
	"query_p99_ms":           "ms",
	"query_samples":          "count",
	"trace.overhead_ratio":   "ratio",
	"trace.spans":            "count",
}

// layerMetrics derives the per-layer metrics from the traced iterations'
// spans, counters and CPU profiles. Counts, bytes and times are per
// iteration (totals divided by the traced iteration count); percentiles
// pool every sample.
func layerMetrics(rep *report, spans []span, counters map[string]float64, traced []iteration) {
	n := float64(len(traced))
	type agg struct {
		count, bytes float64
		dur          time.Duration
		durs         []time.Duration
	}
	by := make(map[string]*agg)
	get := func(name string) *agg {
		if by[name] == nil {
			by[name] = &agg{}
		}
		return by[name]
	}
	for _, s := range spans {
		keys := []string{s.Name}
		if s.Tag != "" {
			keys = append(keys, s.Name+"/"+s.Tag)
		}
		for _, k := range keys {
			a := get(k)
			a.count++
			a.bytes += float64(s.Bytes)
			a.dur += s.End - s.Start
			if s.Name == "collect.fetch" || s.Name == "serve.request" {
				a.durs = append(a.durs, s.End-s.Start)
			}
		}
	}
	count := func(name string) float64 { return get(name).count / n }
	secs := func(name string) float64 { return get(name).dur.Seconds() / n }
	bytes := func(name string) float64 { return get(name).bytes / n }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	rep.set("rpcserve.requests", count("rpcserve.request"))
	rep.set("rpcserve.busy_s", secs("rpcserve.request"))
	rep.set("rpcserve.bytes", bytes("rpcserve.request"))

	rep.set("collect.fetches", count("collect.fetch"))
	rep.set("collect.fetch_s", secs("collect.fetch"))
	rep.set("collect.fetch_p50_us", us(percentile(get("collect.fetch").durs, 50)))
	rep.set("collect.fetch_p99_us", us(percentile(get("collect.fetch").durs, 99)))
	rep.set("collect.retries", counters["collect.retries"]/n)
	rep.set("collect.failed", counters["collect.failed"]/n)
	rep.set("collect.useful_ratio", ratio(counters["collect.blocks"], get("collect.fetch").count))

	rep.set("stats.gzip_in_bytes", counters["stats.gzip_in_bytes"]/n)
	rep.set("stats.gzip_out_bytes", counters["stats.gzip_out_bytes"]/n)

	rep.set("archive.appends", count("archive.append"))
	rep.set("archive.append_s", secs("archive.append"))
	rep.set("archive.close_s", secs("archive.close"))
	rep.set("archive.segments", counters["archive.segments"]/n)
	rep.set("archive.open_s", secs("archive.open"))

	rep.set("blobstore.puts", count("blobstore.put"))
	rep.set("blobstore.put_bytes", bytes("blobstore.put"))
	rep.set("blobstore.put_s", secs("blobstore.put"))
	rep.set("blobstore.gets", count("blobstore.get"))
	rep.set("blobstore.get_bytes", bytes("blobstore.get"))
	rep.set("blobstore.get_s", secs("blobstore.get"))
	rep.set("blobstore.lists", count("blobstore.list"))

	rep.set("wire.decodes", count("wire.decode"))
	rep.set("wire.decode_bytes", bytes("wire.decode"))
	rep.set("wire.decode_s", secs("wire.decode"))

	rep.set("core.batches", count("core.ingest_batch"))
	rep.set("core.ingest_s", secs("core.ingest_batch"))
	rep.set("core.shard_merge_s", secs("core.shard_merge"))
	rep.set("core.ingest_archive_s", secs("core.ingest_archive"))
	rep.set("core.summarize_s", secs("core.summarize"))
	rep.set("core.render_s", secs("core.render"))

	// The coordinator's overhead is the part of each coord.Run during
	// which no worker attempt was running.
	var overhead time.Duration
	idle := selfTimes(spans, "coord.worker")
	for _, s := range spans {
		if s.Name == "coord.run" {
			overhead += idle[s.ID]
		}
	}
	rep.set("coord.tasks", counters["coord.tasks"]/n)
	rep.set("coord.attempts", count("coord.worker"))
	rep.set("coord.useful_ratio", ratio(counters["coord.completed"], get("coord.worker").count))
	rep.set("coord.worker_s", secs("coord.worker"))
	rep.set("coord.overhead_s", overhead.Seconds()/n)
	rep.set("coord.lease_puts", count("blobstore.put/lease"))
	rep.set("coord.runstate_puts", count("blobstore.put/runstate"))
	rep.set("coord.checkpoint_puts", count("blobstore.put/checkpoint"))
	rep.set("coord.checkpoint_bytes", bytes("blobstore.put/checkpoint"))

	rep.set("serve.queries", count("serve.request"))
	rep.set("serve.handler_s", secs("serve.request"))
	rep.set("serve.handler_p99_us", us(percentile(get("serve.request").durs, 99)))
	rep.set("serve.response_bytes", bytes("serve.request"))

	var epochs, gcCPU, gcCycles float64
	cpu := make(map[string]float64)
	for _, it := range traced {
		epochs += float64(it.epochs)
		gcCPU += it.gcCPU
		gcCycles += float64(it.gcCycles)
		for l, v := range it.layerCPU {
			cpu[l] += v
		}
	}
	rep.set("serve.epochs", epochs/n)
	rep.set("runtime.gc_cpu_s", gcCPU/n)
	rep.set("runtime.gc_cycles", gcCycles/n)
	for _, l := range append(cpuLayers, "other") {
		rep.set(l+".cpu_s", cpu[l]/n)
	}
}

// cpuProfile is a running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and splits its samples by layer.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return attributeCPU(p.buf.Bytes())
}
