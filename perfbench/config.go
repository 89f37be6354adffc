package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"
)

// workloadsJSON pins every workload parameter: the chain scales and the
// block counts they produce, the pool sizes, the coordinator's slicing and
// the serve workload's load. It is compiled in, so a built binary always
// runs the workloads it was built with.
//
//go:embed workloads.json
var workloadsJSON []byte

// Config is the parsed workloads.json.
type Config struct {
	Chains []ChainConfig `json:"chains"`
	// SetupReps is how many times one run builds the whole setup, spread
	// over the measured phase; setup_s is their median.
	SetupReps int `json:"setup_reps"`
	// FetchWorkers, IngestWorkers, Batch and Buffer size every crawl and
	// ingest pool. XRP always fetches with one worker: its WebSocket
	// protocol is sequential per connection.
	FetchWorkers  int `json:"fetch_workers"`
	IngestWorkers int `json:"ingest_workers"`
	Batch         int `json:"batch"`
	Buffer        int `json:"buffer"`

	Coordinate CoordinateConfig `json:"coordinate"`
	Serve      ServeConfig      `json:"serve"`
}

// ChainConfig is one simulated chain: its traffic scale divisor and the
// number of blocks that scale produces (checked in setup).
type ChainConfig struct {
	Name   string `json:"name"`
	Scale  int64  `json:"scale"`
	Blocks int64  `json:"blocks"`
}

// CoordinateConfig sizes the coordinate workload.
type CoordinateConfig struct {
	Slices          int   `json:"slices"`
	Parallel        int   `json:"parallel"`
	CheckpointEvery int64 `json:"checkpoint_every"`
	FetchRetries    int   `json:"fetch_retries"`
	FetchBackoffMs  int   `json:"fetch_backoff_ms"`
}

// ServeConfig sizes the serve workload's open-loop query generator.
type ServeConfig struct {
	RatePerS          float64 `json:"rate_per_s"`
	PostDrainQueries  int     `json:"post_drain_queries"`
	QueryConns        int     `json:"query_conns"`
	PublishIntervalMs int     `json:"publish_interval_ms"`
	// LateLimitMs is the latency limit: a query answered later than this
	// after it was due counts as failed.
	LateLimitMs int `json:"late_limit_ms"`
}

func (c ServeConfig) lateLimit() time.Duration {
	return time.Duration(c.LateLimitMs) * time.Millisecond
}

func (c ServeConfig) publishInterval() time.Duration {
	return time.Duration(c.PublishIntervalMs) * time.Millisecond
}

// loadConfig parses the embedded workloads.json.
func loadConfig() (Config, error) {
	var c Config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return Config{}, fmt.Errorf("parsing workloads.json: %w", err)
	}
	if len(c.Chains) == 0 || c.SetupReps < 1 || c.FetchWorkers < 1 || c.IngestWorkers < 1 ||
		c.Coordinate.Slices < 1 || c.Serve.RatePerS <= 0 || c.Serve.QueryConns < 1 {
		return Config{}, fmt.Errorf("workloads.json: missing or non-positive parameters")
	}
	return c, nil
}
