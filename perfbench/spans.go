package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"obfuscade/internal/cache"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one operation share its op.
type span struct {
	Name   string        `json:"name"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Op     string        `json:"op"`     // the operation: a key or request
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory; flush writes them out once the run
// has ended. A disabled recorder still times calls, so a traced and an
// untraced replay differ only by the span bookkeeping.
type recorder struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin opens a span named name under parent and returns its id, 0
// when the recorder is off.
func (r *recorder) begin(name string, parent int, op string) int {
	if !r.on {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: len(r.spans) + 1, Parent: parent, Op: op, Start: time.Since(r.t0)})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = time.Since(r.t0)
	r.mu.Unlock()
}

// stage runs fn inside a span and returns fn's duration, which is
// measured whether or not the recorder is on.
func (r *recorder) stage(name string, parent int, op string, fn func()) time.Duration {
	id := r.begin(name, parent, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

// flush writes the spans as one JSON document into dir.
func (r *recorder) flush(dir, workload string, seed int64) error {
	if !r.on {
		return nil
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	return os.WriteFile(path, data, 0o644)
}

// timingStore is a cache.Store that times every call into the store it
// wraps and passes bytes and misses through unchanged.
type timingStore struct {
	inner cache.Store

	mu       sync.Mutex
	gets     []float64 // seconds per Get
	puts     []float64 // seconds per Put
	putBytes int64
}

func (s *timingStore) Get(ctx context.Context, key cache.Key) ([]byte, bool) {
	t0 := time.Now()
	data, ok := s.inner.Get(ctx, key)
	d := time.Since(t0).Seconds()
	s.mu.Lock()
	s.gets = append(s.gets, d)
	s.mu.Unlock()
	return data, ok
}

func (s *timingStore) Put(ctx context.Context, key cache.Key, data []byte) error {
	t0 := time.Now()
	err := s.inner.Put(ctx, key, data)
	d := time.Since(t0).Seconds()
	s.mu.Lock()
	s.puts = append(s.puts, d)
	s.putBytes += int64(len(data))
	s.mu.Unlock()
	return err
}
