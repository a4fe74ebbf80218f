package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// jobStatus is the subset of the service's job JSON the benchmark reads.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Outcome   string `json:"outcome"`
	Grade     string `json:"grade"`
	STLSHA256 string `json:"stl_sha256"`
}

// jobBody is the POST /jobs body for one pinned pair under a seed.
func jobBody(p pin, seed int64) []byte {
	b, _ := json.Marshal(map[string]any{
		"part":           p.Part,
		"resolution":     p.Resolution,
		"orientation":    p.Orientation,
		"restore_sphere": p.Restore,
		"seed":           seed,
		"simulate":       true,
	})
	return b
}

// newClient returns an HTTP client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// do sends one request and returns its status and body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// submitJob posts a pinned pair with ?wait=1 and checks the reply
// against the pin. It returns the job id ("" on failure).
func submitJob(o *outcome, mu *sync.Mutex, c *http.Client, url string, p pin, seed int64) string {
	code, data, err := do(c, http.MethodPost, url+"/jobs?wait=1", jobBody(p, seed))
	var st jobStatus
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	ok := err == nil && code == http.StatusOK && st.State == "done" &&
		st.STLSHA256 == p.STLSHA256 && st.Grade == p.Grade
	mu.Lock()
	o.check(ok, "job %s seed %d: status %d err %v reply %.200s", p.id(), seed, code, err, data)
	mu.Unlock()
	if !ok {
		return ""
	}
	return st.ID
}

// closedLoop runs jobs[i] for every i on `clients` concurrent clients,
// each sending its next request when the previous one returns. It
// returns every request's latency and the wall time of the whole loop.
func closedLoop(clients, n int, job func(i int)) (lat []float64, wall time.Duration) {
	lat = make([]float64, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := time.Now()
				job(i)
				lat[i] = time.Since(s).Seconds()
			}
		}()
	}
	wg.Wait()
	return lat, time.Since(t0)
}

// coldPass starts a fresh server on an empty cache directory and
// submits each of the 36 pinned pairs once, in an order shuffled by
// rng, from `clients` closed-loop clients. Every job is a cache miss.
func coldPass(cfg config, o *outcome, pins pinTable, rng *rand.Rand, clients int) (setup, wall time.Duration, lat []float64, rssMB float64, err error) {
	client := newClient(clients)
	defer client.CloseIdleConnections()
	t0 := time.Now()
	srv, err := startServer(cfg, client)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	setup = time.Since(t0)
	order := rng.Perm(len(pins.list))
	var mu sync.Mutex
	lat, wall = closedLoop(clients, len(order), func(i int) {
		submitJob(o, &mu, client, srv.url, pins.list[order[i]], 0)
	})
	m, err := srv.metrics()
	if err == nil {
		o.check(m["cache.misses"] == int64(len(order)) && m["cache.hits"] == 0,
			"cold pass: cache misses %d hits %d, want %d and 0", m["cache.misses"], m["cache.hits"], len(order))
	}
	rssMB = srv.peakRSSMB()
	if serr := srv.stop(); err == nil {
		err = serr
	}
	return setup, wall, lat, rssMB, err
}

// extraStarts is how many servers a jobs_cold run starts and stops only
// to time their set-up.
const extraStarts = 24

// runJobsCold is the cold job service: rounds of one pass with nproc
// closed-loop clients and one pass with a single client, each pass on a
// fresh server, until the budget is spent (at least three rounds, so
// the p90 has ten samples beyond it).
func runJobsCold(cfg config) (*outcome, error) {
	if cfg.trace {
		return traceJobsCold(cfg)
	}
	o := newOutcome()
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var setups, rates, serialRates, lats, rss []float64
	// Server starts beyond the passes' own, so setup_s is a median of
	// many.
	for i := 0; i < extraStarts; i++ {
		client := newClient(1)
		t0 := time.Now()
		srv, err := startServer(cfg, client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := srv.stop(); err != nil {
			return nil, err
		}
		client.CloseIdleConnections()
	}
	for len(rates) < 3 || time.Now().Before(cfg.deadline) {
		setup, wall, lat, mb, err := coldPass(cfg, o, pins, rng, cfg.nproc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		rates = append(rates, float64(len(lat))/wall.Seconds())
		lats = append(lats, lat...)
		rss = append(rss, mb)

		setup, wall, lat, mb, err = coldPass(cfg, o, pins, rng, 1)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		serialRates = append(serialRates, float64(len(lat))/wall.Seconds())
		rss = append(rss, mb)
	}
	if !hasTail(len(lats), 900) {
		return nil, fmt.Errorf("jobs_cold: %d latency samples leave fewer than %d beyond p90", len(lats), minBeyond)
	}
	o.set("setup_s", median(setups), "s")
	o.set("throughput_per_s", median(rates), "1/s")
	o.set("serial_throughput_per_s", median(serialRates), "1/s")
	o.set("latency_p50_ms", 1000*percentile(lats, 0.5), "ms")
	o.note("latency_p90_ms", 1000*percentile(lats, 0.9), "ms")
	q, _ := highestTail(len(lats))
	o.note("latency_tail_ms", 1000*percentile(lats, q), "ms")
	o.note("latency_tail_percentile", q, "ratio")
	o.set("peak_rss_mb", median(rss), "MB")
	o.note("rounds", float64(len(rates)), "count")
	o.note("latency_samples", float64(len(lats)), "count")
	return o, nil
}
