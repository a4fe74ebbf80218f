package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"obfuscade/internal/cache/diskstore"
	"obfuscade/internal/core"
	"obfuscade/internal/mech"
	"obfuscade/internal/mesh"
	"obfuscade/internal/obs"
	"obfuscade/internal/printer"
	"obfuscade/internal/serve"
	"obfuscade/internal/stego"
	"obfuscade/internal/stl"
	"obfuscade/internal/tessellate"
)

// perLayer is every per-layer metric with its unit. A traced run emits
// all of them; a layer its workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.apply_key_s", "s"}, {"brep.save_s", "s"}, {"tessellate.mesh_s", "s"},
	{"tessellate.triangles", "count"}, {"stl.marshal_s", "s"}, {"stl.bytes", "bytes"},
	{"slicer.index_s", "s"}, {"slicer.slice_s", "s"}, {"slicer.layers", "count"},
	{"slicer.toolpath_s", "s"}, {"gcode.generate_s", "s"}, {"gcode.commands", "count"},
	{"printer.print_s", "s"}, {"core.grade_s", "s"}, {"gcode.simulate_s", "s"},
	{"core.residual_s", "s"}, {"memo.reuse_ratio", "ratio"},
	{"parallel.busy_ratio", "ratio"}, {"parallel.queue_wait_s", "s"},
	{"runtime.allocs_per_key", "count"}, {"runtime.bytes_per_key", "bytes"}, {"runtime.gc_cycles", "count"},
	{"serve.roundtrip_hit_ms", "ms"}, {"cache.hit_us", "us"},
	{"cache.hit_ratio", "ratio"}, {"cache.disk_hit_ratio", "ratio"}, {"cache.coalesced", "count"},
	{"cache.miss_s", "s"}, {"core.job_s", "s"},
	{"diskstore.get_ms", "ms"}, {"diskstore.put_ms", "ms"}, {"diskstore.put_bytes", "bytes"},
	{"stl.unmarshal_ms", "ms"}, {"stego.detect_ms", "ms"}, {"stego.sanitize_ms", "ms"},
	{"stego.sanitize_stl_ms", "ms"}, {"stego.flagged_ratio", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// newTracedOutcome is an outcome with every per-layer metric at 0.
func newTracedOutcome() *outcome {
	o := newOutcome()
	for _, m := range perLayer {
		o.set(m.name, 0, m.unit)
	}
	return o
}

// setLayer sets a per-layer metric, keeping its declared unit.
func (o *outcome) setLayer(name string, v float64) {
	m, ok := o.metrics[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	m.Value = v
	o.metrics[name] = m
}

// obsDelta is the change of the process's obs counters, gauges and
// histogram sums over fn.
func obsDelta(fn func()) func(name string) float64 {
	before := obs.Default().Snapshot()
	fn()
	after := obs.Default().Snapshot()
	return func(name string) float64 {
		if v, ok := after.Counter(name); ok {
			b, _ := before.Counter(name)
			return float64(v - b)
		}
		if v, ok := after.Gauge(name); ok {
			b, _ := before.Gauge(name)
			return float64(v - b)
		}
		if h, ok := after.Stage(name); ok {
			b, _ := before.Stage(name)
			return h.SumSeconds - b.SumSeconds
		}
		return 0
	}
}

// memDelta is the change of the runtime's allocation counters over fn.
func memDelta(fn func()) (mallocs, bytes, gcs float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc), float64(b.NumGC - a.NumGC)
}

// replayTarget is one key to replay and the design it belongs to.
type replayTarget struct {
	prot *core.Protected
	key  core.Key
	pin  pin
}

// replaySweep replays every target in order and returns the per-stage
// totals, the sweep's wall time and the per-sweep counts. Each key's
// outputs are checked against its pin: STL bytes, G-code bytes, grade.
func replaySweep(o *outcome, rec *recorder, targets []replayTarget, prof printer.Profile) (stages [numStages]float64, wall time.Duration, counts [4]float64, err error) {
	t0 := time.Now()
	for _, t := range targets {
		op := t.pin.id()
		root := rec.begin("key", 0, op)
		kr, err := replayKey(rec, root, op, t.prot, t.key, prof)
		rec.end(root)
		if err != nil {
			return stages, 0, counts, fmt.Errorf("replaying %s: %w", op, err)
		}
		for i, d := range kr.stage {
			stages[i] += d.Seconds()
		}
		counts[0] += float64(kr.triangles)
		counts[1] += float64(kr.stlBytes)
		counts[2] += float64(kr.layers)
		counts[3] += float64(kr.commands)
		o.check(kr.stlSHA == t.pin.STLSHA256 && kr.gcodeSHA == t.pin.GCodeSHA256 && kr.grade == t.pin.Grade,
			"replay %s: stl %s gcode %s grade %s differ from the pipeline's", op, kr.stlSHA, kr.gcodeSHA, kr.grade)
	}
	return stages, time.Since(t0), counts, nil
}

// replays alternates traced and untraced replay sweeps until the
// deadline (at least two of each), then sets the stage metrics to the
// median per-sweep totals, the counts, and the trace overhead ratio.
// It returns the sum of the stage medians.
func replays(o *outcome, rec *recorder, targets []replayTarget, prof printer.Profile, deadline time.Time) (float64, error) {
	var perStage [numStages][]float64
	var traced, untraced []float64
	var counts [4]float64
	for len(untraced) < 2 || time.Now().Before(deadline) {
		for _, on := range []bool{true, false} {
			rec.on = on
			stages, wall, c, err := replaySweep(o, rec, targets, prof)
			if err != nil {
				return 0, err
			}
			for i := range stages {
				perStage[i] = append(perStage[i], stages[i])
			}
			if on {
				traced = append(traced, wall.Seconds())
			} else {
				untraced = append(untraced, wall.Seconds())
			}
			counts = c
		}
	}
	rec.on = true
	total := 0.0
	for i, xs := range perStage {
		o.setLayer(stageMetrics[i], median(xs))
		total += median(xs)
	}
	o.setLayer("tessellate.triangles", counts[0])
	o.setLayer("stl.bytes", counts[1])
	o.setLayer("slicer.layers", counts[2])
	o.setLayer("gcode.commands", counts[3])
	o.setLayer("bench.trace_overhead_ratio", median(traced)/median(untraced))
	return total, nil
}

// traceMatrix measures the matrix layers: memo, pool and allocation
// deltas over untraced sweeps, then stage-by-stage replays of every key
// checked byte for byte against the pipeline's pinned outputs.
func traceMatrix(cfg config) (*outcome, error) {
	o := newTracedOutcome()
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	prof := printer.DimensionElite()
	rec := newRecorder(true)
	prots, err := setUpMatrix(o, prof, cfg.nproc, pins) // warm-up
	if err != nil {
		return nil, err
	}
	var serial []float64
	var sweepErr error
	mallocs, bytes, gcs := memDelta(func() {
		d := obsDelta(func() {
			var w time.Duration
			w, sweepErr = sweep(o, prots, prof, 1, pins)
			serial = append(serial, w.Seconds())
		})
		if reuse, builds := d("memo.reused"), d("memo.builds"); reuse+builds > 0 {
			o.setLayer("memo.reuse_ratio", reuse/(reuse+builds))
		}
	})
	if sweepErr != nil {
		return nil, sweepErr
	}
	keys := float64(len(pins.list))
	o.setLayer("runtime.allocs_per_key", mallocs/keys)
	o.setLayer("runtime.bytes_per_key", bytes/keys)
	o.setLayer("runtime.gc_cycles", gcs)
	d := obsDelta(func() { _, sweepErr = sweep(o, prots, prof, cfg.nproc, pins) })
	if sweepErr != nil {
		return nil, sweepErr
	}
	if wall := d("parallel.pool.wall.nanos"); wall > 0 {
		o.setLayer("parallel.busy_ratio", d("parallel.pool.busy.nanos")/wall)
	}
	o.setLayer("parallel.queue_wait_s", d("parallel.queue.wait.seconds"))
	w, err := sweep(o, prots, prof, 1, pins)
	if err != nil {
		return nil, err
	}
	serial = append(serial, w.Seconds())

	var targets []replayTarget
	for i, prot := range prots {
		for _, k := range core.AllKeys(prot) {
			targets = append(targets, replayTarget{prot: prot, key: k, pin: pins.byID[pinID(parts[i], k)]})
		}
	}
	staged, err := replays(o, rec, targets, prof, cfg.deadline)
	if err != nil {
		return nil, err
	}
	o.setLayer("core.residual_s", median(serial)-staged)
	return o, rec.flush(cfg.outDir, cfg.workload, cfg.seed)
}

// maxUploadBytes bounds the job artifacts used as sanitize uploads:
// small files, so a sanitize costs milliseconds, not seconds.
const maxUploadBytes = 70000

// jobRequest is the service request for a pinned pair.
func jobRequest(p pin, seed int64) serve.Request {
	return serve.Request{Part: p.Part, Resolution: p.Resolution, Orientation: p.Orientation,
		RestoreSphere: p.Restore, Seed: seed, Simulate: true}
}

// traceJobsCold measures the cold job path layer by layer: stage
// replays of the 36 jobs, core.RunJob against serve.Service.Do on a
// miss over a timed disk store, the sanitizer on the job artifacts,
// and two serve children over HTTP for the service's own counters and
// the hit round trip.
func traceJobsCold(cfg config) (*outcome, error) {
	o := newTracedOutcome()
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	prof := printer.DimensionElite()
	rec := newRecorder(true)
	rng := rand.New(rand.NewSource(cfg.seed))
	order := rng.Perm(len(pins.list))
	ctx := context.Background()

	// core.RunJob, untraced and serial, as the service runs it on a miss.
	var jobS float64
	var jobErr error
	mallocs, bytes, gcs := memDelta(func() {
		d := obsDelta(func() {
			for _, i := range order {
				p := pins.list[i]
				spec, err := jobSpec(p)
				if err != nil {
					jobErr = err
					return
				}
				t0 := time.Now()
				res, err := core.RunJob(ctx, spec, prof)
				jobS += time.Since(t0).Seconds()
				if err != nil {
					jobErr = err
					return
				}
				o.check(sha(res.STL) == p.STLSHA256 && res.Quality.Grade.String() == p.Grade,
					"core.RunJob %s: output differs from the pin", p.id())
			}
		})
		if wall := d("parallel.pool.wall.nanos"); wall > 0 {
			o.setLayer("parallel.busy_ratio", d("parallel.pool.busy.nanos")/wall)
		}
		o.setLayer("parallel.queue_wait_s", d("parallel.queue.wait.seconds"))
		if reuse, builds := d("memo.reused"), d("memo.builds"); reuse+builds > 0 {
			o.setLayer("memo.reuse_ratio", reuse/(reuse+builds))
		}
	})
	if jobErr != nil {
		return nil, jobErr
	}
	keys := float64(len(order))
	o.setLayer("core.job_s", jobS)
	o.setLayer("runtime.allocs_per_key", mallocs/keys)
	o.setLayer("runtime.bytes_per_key", bytes/keys)
	o.setLayer("runtime.gc_cycles", gcs)

	// serve.Service over a timed disk store: every request a miss, then
	// the same request again as a memory hit.
	dir, err := os.MkdirTemp(cfg.outDir, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ds, err := diskstore.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	ts := &timingStore{inner: ds}
	svc := serve.NewTieredService(0, prof, ts)
	var missS float64
	var hits []float64
	for _, i := range order {
		p := pins.list[i]
		for _, want := range []string{"miss", "hit"} {
			var res *serve.Result
			var err error
			id := rec.begin("serve.Service.Do", 0, p.id())
			t0 := time.Now()
			res, err = svc.Do(ctx, jobRequest(p, 0))
			d := time.Since(t0).Seconds()
			rec.end(id)
			if err != nil {
				return nil, err
			}
			o.check(res.Outcome.String() == want && res.STLSHA256 == p.STLSHA256 && res.Grade == p.Grade,
				"Service.Do %s: outcome %s, want %s; output differs from the pin", p.id(), res.Outcome, want)
			if want == "miss" {
				missS += d
			} else {
				hits = append(hits, d)
			}
		}
	}
	o.setLayer("cache.miss_s", missS)
	o.setLayer("cache.hit_us", 1e6*median(hits))
	o.setLayer("diskstore.put_ms", 1000*median(ts.puts))
	o.setLayer("diskstore.put_bytes", float64(ts.putBytes))

	// A second service on the same disk tier, as after a restart: every
	// request is a disk hit, so the store's Get reads real objects.
	ts.gets = nil
	warm := serve.NewTieredService(0, prof, ts)
	var uploads [][]byte
	for _, i := range order {
		p := pins.list[i]
		res, err := warm.Do(ctx, jobRequest(p, 0))
		if err != nil {
			return nil, err
		}
		o.check(res.Outcome.String() == "disk_hit" && sha(res.STL) == p.STLSHA256,
			"restarted Service.Do %s: outcome %s; output differs from the pin", p.id(), res.Outcome)
		if p.STLBytes <= maxUploadBytes {
			uploads = append(uploads, res.STL)
		}
	}
	o.setLayer("diskstore.get_ms", 1000*median(ts.gets))

	// The small artifacts as uploads to the sanitizer, each once as
	// produced and once carrying a stego payload.
	var san sanitizeTimes
	var embedded [][]byte
	for i, u := range uploads {
		m, err := stl.Unmarshal(u)
		if err != nil {
			return nil, err
		}
		em, err := stego.Embed(m, []byte(fmt.Sprintf("perfbench seed %d upload %d", cfg.seed, i)), stego.Options{})
		if err != nil {
			return nil, err
		}
		emb, err := stl.Marshal(em, stl.Binary, "upload")
		if err != nil {
			return nil, err
		}
		embedded = append(embedded, emb)
		for _, up := range []struct {
			body     []byte
			embedded bool
		}{{u, false}, {emb, true}} {
			d, flag, err := sanitizeParts(o, rec, fmt.Sprintf("upload%d", i), up.body, up.embedded)
			if err != nil {
				return nil, err
			}
			san.add(d, up.embedded, flag)
		}
	}
	san.set(o)

	if err := httpCounters(cfg, o, pins, order, embedded); err != nil {
		return nil, err
	}

	var targets []replayTarget
	for _, i := range order {
		p := pins.list[i]
		prot, err := core.BuildProtected(p.Part)
		if err != nil {
			return nil, err
		}
		spec, err := jobSpec(p)
		if err != nil {
			return nil, err
		}
		targets = append(targets, replayTarget{prot: prot, key: spec.Key, pin: p})
	}
	staged, err := replays(o, rec, targets, prof, cfg.deadline)
	if err != nil {
		return nil, err
	}
	o.setLayer("core.residual_s", jobS-staged)
	return o, rec.flush(cfg.outDir, cfg.workload, cfg.seed)
}

// jobSpec is the core job a pinned pair's request normalizes to.
func jobSpec(p pin) (core.JobSpec, error) {
	res, err := tessellate.ByName(p.Resolution)
	if err != nil {
		return core.JobSpec{}, err
	}
	o := mech.XY
	if p.Orientation == mech.XZ.String() {
		o = mech.XZ
	}
	return core.JobSpec{Part: p.Part, Key: core.Key{Resolution: res, Orientation: o, RestoreSphere: p.Restore}, Simulate: true}, nil
}

// httpCounters drives two serve children over HTTP and sets the cache
// metrics from their /metrics.json deltas:
//   - the first, on an empty directory, gets every job once from nproc
//     clients (misses), then once more from one client (memory hits,
//     whose round trip is timed), then each upload from nproc clients at
//     the same instant (one sanitize run; the others join it while it
//     runs, or hit once it has finished);
//   - the second, on the first's directory after it has drained, as
//     after a restart, gets every job and upload once more (disk hits).
//
// Every reply is checked against the pins or the sanitizer's contract.
func httpCounters(cfg config, o *outcome, pins pinTable, order []int, uploads [][]byte) error {
	wants := make([]string, len(uploads))
	for i, body := range uploads {
		clean, _, err := stego.SanitizeSTL(body, stego.Options{})
		if err != nil {
			return err
		}
		wants[i] = sha(clean)
	}
	client := newClient(cfg.nproc)
	defer client.CloseIdleConnections()
	srv, err := startServer(cfg, client)
	if err != nil {
		return err
	}
	defer os.RemoveAll(srv.dir)
	var mu sync.Mutex
	var deltas []map[string]int64
	err = countersOver(srv, &deltas, func() {
		closedLoop(cfg.nproc, len(order), func(i int) {
			submitJob(o, &mu, client, srv.url, pins.list[order[i]], 0)
		})
		lat, _ := closedLoop(1, len(order), func(i int) {
			submitJob(o, &mu, client, srv.url, pins.list[order[i]], 0)
		})
		o.setLayer("serve.roundtrip_hit_ms", 1000*median(lat))
		for i, body := range uploads {
			var wg sync.WaitGroup
			start := make(chan struct{})
			for c := 0; c < cfg.nproc; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					submitSanitize(o, &mu, client, srv.url, fmt.Sprintf("upload%d", i), body, wants[i], "")
				}()
			}
			close(start)
			wg.Wait()
		}
	})
	if herr := srv.halt(); err == nil {
		err = herr
	}
	if err != nil {
		return err
	}

	warm, err := srv.restart(cfg)
	if err != nil {
		return err
	}
	err = countersOver(warm, &deltas, func() {
		for _, i := range order {
			p := pins.list[i]
			code, data, err := do(client, http.MethodPost, warm.url+"/jobs?wait=1", jobBody(p, 0))
			var st jobStatus
			if err == nil {
				err = json.Unmarshal(data, &st)
			}
			o.check(err == nil && code == http.StatusOK && st.Outcome == "disk_hit" && st.STLSHA256 == p.STLSHA256 && st.Grade == p.Grade,
				"restarted job %s: status %d err %v reply %.200s", p.id(), code, err, data)
		}
		for i, body := range uploads {
			submitSanitize(o, &mu, client, warm.url, fmt.Sprintf("upload%d", i), body, wants[i], "disk_hit")
		}
	})
	if herr := warm.halt(); err == nil {
		err = herr
	}
	if err != nil {
		return err
	}
	setCacheRatios(o, deltas...)
	return nil
}

// countersOver runs fn and appends the change of srv's /metrics.json
// counters over it to deltas.
func countersOver(srv *server, deltas *[]map[string]int64, fn func()) error {
	before, err := srv.metrics()
	if err != nil {
		return err
	}
	fn()
	after, err := srv.metrics()
	if err != nil {
		return err
	}
	d := map[string]int64{}
	for name, v := range after {
		d[name] = v - before[name]
	}
	*deltas = append(*deltas, d)
	return nil
}

// sanitizeReply is the subset of POST /sanitize's JSON the benchmark
// reads.
type sanitizeReply struct {
	Outcome   string               `json:"outcome"`
	STLSHA256 string               `json:"stl_sha256"`
	Report    stego.SanitizeReport `json:"report"`
}

// submitSanitize posts an upload that carries a stego payload and
// checks that the service flagged it and returned a clean artifact
// whose digest is want, the in-process sanitizer's. A non-empty outcome
// must also match the reply's.
func submitSanitize(o *outcome, mu *sync.Mutex, c *http.Client, url, op string, body []byte, want, outcome string) {
	code, data, err := do(c, http.MethodPost, url+"/sanitize", body)
	var rep sanitizeReply
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	ok := err == nil && code == http.StatusOK && rep.STLSHA256 == want &&
		rep.Report.Before.Suspicious() && !rep.Report.After.Suspicious() &&
		(outcome == "" || rep.Outcome == outcome)
	mu.Lock()
	o.check(ok, "sanitize %s: status %d err %v reply %.200s", op, code, err, data)
	mu.Unlock()
}

// setCacheRatios sets the cache metrics from /metrics.json deltas.
// Lookups are memory hits, disk hits, misses and coalesced joins.
func setCacheRatios(o *outcome, deltas ...map[string]int64) {
	d := func(name string) float64 {
		var t int64
		for _, m := range deltas {
			t += m[name]
		}
		return float64(t)
	}
	lookups := d("cache.hits") + d("cache.disk.hits") + d("cache.misses") + d("cache.coalesced")
	if lookups > 0 {
		o.setLayer("cache.hit_ratio", d("cache.hits")/lookups)
		o.setLayer("cache.disk_hit_ratio", d("cache.disk.hits")/lookups)
	}
	o.setLayer("cache.coalesced", d("cache.coalesced"))
}

// sanitizeTimes collects the durations of stego.SanitizeSTL and its
// parts over many uploads.
type sanitizeTimes struct {
	parts    [4][]float64 // stl.Unmarshal, stego.Detect, stego.Sanitize, whole SanitizeSTL
	embedded int
	flagged  int
}

func (t *sanitizeTimes) add(d [4]time.Duration, embedded, flagged bool) {
	for j := range d {
		t.parts[j] = append(t.parts[j], d[j].Seconds())
	}
	if embedded {
		t.embedded++
		if flagged {
			t.flagged++
		}
	}
}

// set records the medians and the flagged ratio.
func (t *sanitizeTimes) set(o *outcome) {
	for j, name := range []string{"stl.unmarshal_ms", "stego.detect_ms", "stego.sanitize_ms", "stego.sanitize_stl_ms"} {
		o.setLayer(name, 1000*median(t.parts[j]))
	}
	if t.embedded > 0 {
		o.setLayer("stego.flagged_ratio", float64(t.flagged)/float64(t.embedded))
	}
}

// sanitizeParts times stego.SanitizeSTL on body, then its parts one by
// one, as spans under one root span for op. It checks that the output
// is clean, that an embedded upload was flagged, and that the output is
// a fixed point of the sanitizer. It returns the durations (unmarshal,
// detect, sanitize, whole) and whether the detector flagged the upload.
func sanitizeParts(o *outcome, rec *recorder, op string, body []byte, embedded bool) ([4]time.Duration, bool, error) {
	var d [4]time.Duration
	root := rec.begin("stego.SanitizeSTL", 0, op)
	defer rec.end(root)
	var clean []byte
	var rep stego.SanitizeReport
	var err error
	d[3] = rec.stage("stego.SanitizeSTL", root, op, func() { clean, rep, err = stego.SanitizeSTL(body, stego.Options{}) })
	if err != nil {
		return d, false, err
	}
	var m *mesh.Mesh
	d[0] = rec.stage("stl.Unmarshal", root, op, func() { m, err = stl.Unmarshal(body) })
	if err != nil {
		return d, false, err
	}
	var before stego.Report
	d[1] = rec.stage("stego.Detect", root, op, func() { before = stego.Detect(m, stego.Options{}) })
	d[2] = rec.stage("stego.Sanitize", root, op, func() { stego.Sanitize(m, stego.Options{}) })
	ok := !rep.After.Suspicious() && (!embedded || rep.Before.Suspicious())
	if ok {
		again, _, err := stego.SanitizeSTL(clean, stego.Options{})
		ok = err == nil && sha(again) == sha(clean)
	}
	o.check(ok, "SanitizeSTL %s: not flagged, not clean after, or not idempotent", op)
	return d, before.Suspicious(), nil
}
