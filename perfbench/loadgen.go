package main

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// loadResult is what one run of the query generator saw.
type loadResult struct {
	sent, failed int64
	// latencies holds every answered query's latency, measured from when
	// the query was due, so a stall also charges the queries behind it.
	latencies []time.Duration
	// lateMax is the furthest the generator fell behind its schedule.
	lateMax time.Duration
	// ingestSent counts the queries sent before the feeds drained.
	ingestSent int64
}

type query struct {
	due  time.Time
	path string
}

// runLoad is an open-loop query generator: one goroutine hands queries
// out at sc.RatePerS, to sc.QueryConns client goroutines with one
// connection each, whatever the server's speed. It keeps going while the
// feeds ingest and stops sc.PostDrainQueries queries after drained
// closes. A query fails on a transport error, a non-2xx status, or an
// answer later than sc.LateLimitMs after it was due.
func runLoad(ctx context.Context, base string, sc ServeConfig, chains []string, drained <-chan struct{}) loadResult {
	var paths []string
	for _, c := range chains {
		paths = append(paths, "/v1/summary/"+c, "/v1/figures", "/v1/percentiles/"+c+"?p=50,90,99")
	}
	interval := time.Duration(float64(time.Second) / sc.RatePerS)
	limit := sc.lateLimit()

	queries := make(chan query)
	results := make([]loadResult, sc.QueryConns)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			out := &results[i]
			for q := range queries {
				ok := get(ctx, client, base+q.path)
				lat := time.Since(q.due)
				out.sent++
				if !ok || lat > limit {
					out.failed++
					continue
				}
				out.latencies = append(out.latencies, lat)
			}
		}()
	}

	var res loadResult
	start := time.Now()
	post := -1 // queries left after the feeds drained; -1 while ingesting
	for i := 0; post != 0; i++ {
		if post < 0 {
			select {
			case <-drained:
				post = sc.PostDrainQueries
			default:
			}
		}
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(due); late > res.lateMax {
			res.lateMax = late
		}
		queries <- query{due: due, path: paths[i%len(paths)]}
		if post > 0 {
			post--
		} else if post < 0 {
			res.ingestSent++
		}
	}
	close(queries)
	wg.Wait()
	for _, r := range results {
		res.sent += r.sent
		res.failed += r.failed
		res.latencies = append(res.latencies, r.latencies...)
	}
	return res
}

// get issues one query and reports whether it was answered with a 2xx.
func get(ctx context.Context, client *http.Client, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode >= 200 && resp.StatusCode < 300
}
