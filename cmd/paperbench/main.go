// Command paperbench regenerates every table and figure of the
// ObfusCADe paper's evaluation.
//
// Usage:
//
//	paperbench [-exp all|table1..3|fig1..fig10|polyjet|sidechannel|keyspace|matrix|ablation|bench|saturate]
//	           [-n replicates] [-seed n] [-csv] [-workers n] [-stats]
//	           [-debug-addr addr] [-trace-out file] [-manifest-out file]
//	           [-benchout file] [-cpuprofile file] [-memprofile file]
//
// -stats prints the per-stage pipeline metrics (package obs) after the
// experiments finish. -debug-addr serves the unified debug surface
// (/metrics in Prometheus text format, /metrics.json, /trace as a
// Chrome trace download, /trace.ndjson, and /debug/pprof) for the
// duration of the run; -pprof is a deprecated alias. The bind happens
// synchronously before any experiment runs — a bad address or occupied
// port aborts with exit code 4 instead of silently continuing.
//
// -trace-out writes the run's trace ring buffer as Chrome trace JSON
// (loadable in Perfetto / chrome://tracing) on exit. -cpuprofile and
// -memprofile write pprof profiles covering the whole run (the
// allocation profile is written on exit after a final GC); unlike
// -debug-addr they need no live scrape, so they are the tool of choice
// for profiling a single `-exp bench` or `-exp matrix` pass. See
// EXPERIMENTS.md ("Profiling the pipeline") for how to read them. -exp matrix runs
// the reference quality matrix and, with -manifest-out, writes one
// NDJSON provenance line per processing key. -exp bench runs the
// machine-readable benchmark pass and writes its JSON report to the
// -benchout path; CI diffs that artifact against the committed baseline
// with scripts/benchdiff.go.
//
// Exit codes: 0 success, 1 experiment failure, 2 flag-parse error,
// 3 unknown -exp name, 4 debug-server bind failure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"obfuscade/internal/core"
	"obfuscade/internal/experiments"
	"obfuscade/internal/mech"
	"obfuscade/internal/obs"
	"obfuscade/internal/parallel"
	"obfuscade/internal/printer"
	"obfuscade/internal/report"
	"obfuscade/internal/serve"
	"obfuscade/internal/shard"
	"obfuscade/internal/trace"
)

// errUnknownExperiment distinguishes a bad -exp name (exit code 3) from
// an experiment that ran and failed (exit code 1). Flag-parse errors keep
// the flag package's exit code 2, so scripts can tell the three apart.
var errUnknownExperiment = errors.New("unknown experiment")

const (
	exitUnknownExperiment = 3
	exitDebugBind         = 4
)

// runOpts carries the flag values the experiment runner needs.
type runOpts struct {
	exp         string
	n           int
	seed        int64
	csv         bool
	manifestOut string
}

// shardChildEnv is the saturation benchmark's re-exec protocol: when
// set, this process is a shard child and must run one serve instance
// until stdin closes, writing its bound address to the named file. An
// env var rather than a flag so the same interception works in the
// test binary (whose flag set belongs to the testing package) via
// TestMain.
const shardChildEnv = "OBFUSCADE_SHARD_ADDR_FILE"

func main() {
	if addrFile := os.Getenv(shardChildEnv); addrFile != "" {
		if err := runShardChild(addrFile); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		return
	}

	exp := flag.String("exp", "all", "experiment to run (all, table1..3, fig1..fig10, polyjet, sidechannel, keyspace, matrix, stltheft, ndt, servicelife, ablation, bench, saturate)")
	n := flag.Int("n", 5, "tensile replicates per group")
	seed := flag.Int64("seed", 1, "process noise seed")
	csv := flag.Bool("csv", false, "emit tables as CSV")
	workers := flag.Int("workers", 0, "worker pool size for parallel stages (0 = all CPUs)")
	stats := flag.Bool("stats", false, "print per-stage pipeline metrics after the run")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /metrics.json, /trace and /debug/pprof on this address (e.g. localhost:6060)")
	pprofAddr := flag.String("pprof", "", "deprecated alias for -debug-addr")
	traceOut := flag.String("trace-out", "", "write the run's Chrome trace JSON to this file on exit")
	manifestOut := flag.String("manifest-out", "", "write per-key provenance manifests (NDJSON) for -exp matrix to this file")
	benchOut := flag.String("benchout", "BENCH_obfuscade.json", "output path for the -exp bench JSON report")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	flag.Parse()
	parallel.SetDefault(*workers)

	// os.Exit skips defers, so every exit path below must call
	// stopProfiles explicitly — a truncated CPU profile is unreadable.
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}

	if addr := firstNonEmpty(*debugAddr, *pprofAddr); addr != "" {
		srv, err := trace.StartDebugServer(addr, obs.Default(), trace.Default())
		if err != nil {
			// A debug surface the operator asked for but cannot reach is a
			// silent observability hole; fail loudly with a distinct code.
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			stopProfiles()
			os.Exit(exitDebugBind)
		}
		defer srv.Close()
		fmt.Fprintln(os.Stderr, "paperbench: debug server on", srv.URL())
	}

	if strings.EqualFold(*exp, "bench") {
		err = runBench(*benchOut, 64, *seed)
	} else if strings.EqualFold(*exp, "saturate") {
		err = runSaturateCmd()
	} else {
		err = run(runOpts{exp: *exp, n: *n, seed: *seed, csv: *csv, manifestOut: *manifestOut})
	}
	if *stats {
		obs.Default().Snapshot().WriteText(os.Stdout)
	}
	if *traceOut != "" {
		if terr := writeTrace(*traceOut); terr != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", terr)
			if err == nil {
				err = terr
			}
		}
	}
	stopProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		if errors.Is(err, errUnknownExperiment) {
			os.Exit(exitUnknownExperiment)
		}
		os.Exit(1)
	}
}

// startProfiles begins CPU profiling (when cpuPath is set) and returns
// a stop function that finalises the CPU profile and writes the
// allocation profile (when memPath is set). The stop function must run
// on every exit path: os.Exit skips defers and a CPU profile that was
// never stopped is truncated mid-record.
func startProfiles(cpuPath, memPath string) (func(), error) {
	stopCPU := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		stopCPU()
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return
		}
		// The allocs profile records cumulative allocation sites; a final
		// GC settles the in-use numbers so -sample_index=inuse_space is
		// meaningful too.
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
		}
		f.Close()
	}, nil
}

func firstNonEmpty(vals ...string) string {
	for _, v := range vals {
		if v != "" {
			return v
		}
	}
	return ""
}

// writeTrace dumps the default recorder's ring buffer as Chrome trace
// JSON for Perfetto / chrome://tracing.
func writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Default().WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(opts runOpts) error {
	exp, n, seed, csv := opts.exp, opts.n, opts.seed, opts.csv
	emit := func(t *report.Table) {
		if csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}
	want := func(name string) bool { return exp == "all" || strings.EqualFold(exp, name) }
	ran := false

	if want("table1") {
		ran = true
		t, err := experiments.Table1()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("table2") {
		ran = true
		t, groups, err := experiments.Table2(n, seed)
		if err != nil {
			return err
		}
		emit(t)
		if err := experiments.Table2ShapeCheck(groups); err != nil {
			fmt.Printf("shape check: FAILED: %v\n\n", err)
		} else {
			fmt.Printf("shape check: OK (split parts lose >=50%% failure strain, >=2x toughness)\n\n")
		}
		ext, err := experiments.Table2Extended(n, seed)
		if err != nil {
			return err
		}
		emit(ext)
	}
	if want("table3") {
		ran = true
		t, err := experiments.Table3()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig1") {
		ran = true
		t, err := experiments.Fig1()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig2") {
		ran = true
		fmt.Println(experiments.Fig2())
		emit(experiments.RiskMatrix())
	}
	if want("fig3") {
		ran = true
		t, err := experiments.Fig3()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig4") {
		ran = true
		series, t, err := experiments.Fig4()
		if err != nil {
			return err
		}
		fmt.Println(series.Render())
		emit(t)
	}
	if want("fig5") {
		ran = true
		t, err := experiments.Fig5()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig6") {
		ran = true
		t, err := experiments.Fig6()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig7") {
		ran = true
		t, err := experiments.Fig7()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig8") {
		ran = true
		t, err := experiments.Fig8()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("fig9") {
		ran = true
		t, err := experiments.Fig9()
		if err != nil {
			return err
		}
		emit(t)
		if !csv {
			field, err := experiments.Fig9Field()
			if err != nil {
				return err
			}
			fmt.Println("von Mises field around the split tip ('o' = slit, '@' = peak):")
			fmt.Println(field)
		}
	}
	if want("fig10") {
		ran = true
		t, err := experiments.Fig10()
		if err != nil {
			return err
		}
		emit(t)
		if !csv {
			hollow, dense, err := experiments.Fig10Sections()
			if err != nil {
				return err
			}
			fmt.Println("Fig. 10c analogue — sphere without material removal, cut open after wash-out:")
			fmt.Println(hollow)
			fmt.Println("Fig. 10d analogue — material removal + solid sphere, fully dense:")
			fmt.Println(dense)
		}
	}
	if want("polyjet") {
		ran = true
		t, err := experiments.PolyJetReplication()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("sidechannel") {
		ran = true
		t, err := experiments.SideChannelLeakage()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("keyspace") {
		ran = true
		t, rep, err := experiments.KeySpace()
		if err != nil {
			return err
		}
		emit(t)
		fmt.Printf("key space: %d keys, %d good; mean print %.2f h; expected brute force %.2f h\n\n",
			rep.TotalKeys, rep.GoodKeys, rep.MeanPrintHours, rep.ExpectedBruteForceHours)
	}
	if want("matrix") {
		ran = true
		if err := runMatrix(seed, opts.manifestOut, emit); err != nil {
			return err
		}
	}
	if want("ndt") {
		ran = true
		t, err := experiments.NDT()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("servicelife") {
		ran = true
		t, err := experiments.ServiceLife()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("stltheft") {
		ran = true
		t, err := experiments.STLTheft()
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("ablation") {
		ran = true
		t, err := experiments.AblationHealing()
		if err != nil {
			return err
		}
		emit(t)
		t2, err := experiments.AblationAmplitude()
		if err != nil {
			return err
		}
		emit(t2)
		t3, err := experiments.AblationMultiSplit()
		if err != nil {
			return err
		}
		emit(t3)
	}
	if !ran {
		return fmt.Errorf("%w %q", errUnknownExperiment, exp)
	}
	return nil
}

// runMatrix manufactures the reference protected bar under every
// processing key, renders the quality matrix, and (with -manifest-out)
// writes one NDJSON provenance line per key — the audit-trail artifact
// CI captures alongside the Chrome trace.
func runMatrix(seed int64, manifestOut string, emit func(*report.Table)) error {
	prot, err := core.NewProtectedBar("bar", false)
	if err != nil {
		return err
	}
	entries, err := core.QualityMatrix(prot, printer.DimensionElite())
	if err != nil {
		return err
	}
	emit(core.MatrixTable(entries))
	if manifestOut != "" {
		f, err := os.Create(manifestOut)
		if err != nil {
			return err
		}
		n, werr := core.WriteManifests(f, entries, seed)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Printf("wrote %d provenance manifests to %s\n\n", n, manifestOut)
	}
	return nil
}

// benchReport is the machine-readable benchmark artifact `make bench`
// writes to BENCH_obfuscade.json. scripts/benchdiff.go compares the
// matrix wall times against the committed BENCH_baseline.json.
type benchReport struct {
	Schema     int    `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Matrix     struct {
		Keys            int     `json:"keys"`
		SerialSeconds   float64 `json:"serial_seconds"`
		ParallelSeconds float64 `json:"parallel_seconds"`
		Workers         int     `json:"workers"`
		Speedup         float64 `json:"speedup"`
		// AllocsPerKey and BytesPerKey are the heap allocation count and
		// cumulative allocated bytes per processing key during the
		// parallel matrix run (runtime.MemStats Mallocs / TotalAlloc
		// deltas divided by the key count). Both counters are monotonic,
		// so concurrent GC cannot skew the delta. benchdiff warns when
		// allocs/key regresses more than its -alloc-tolerance.
		AllocsPerKey int64 `json:"allocs_per_key"`
		BytesPerKey  int64 `json:"bytes_per_key"`
	} `json:"matrix"`
	// Stages splits the parallel matrix wall time by pipeline stage using
	// the obs stage histograms — the denominators the shared tessellation
	// and zero-alloc work are judged against.
	Stages struct {
		TessellateSeconds float64 `json:"tessellate_seconds"`
		VoxelSeconds      float64 `json:"voxel_seconds"`
	} `json:"stages"`
	Slicer struct {
		Layers          int64   `json:"layers"`
		LayersPerSecond float64 `json:"layers_per_second"`
		// IndexBuildSeconds is the total wall time spent building sweep
		// indices during the parallel matrix run — the serial prologue
		// the per-layer speedup is paid for with.
		IndexBuildSeconds float64 `json:"index_build_seconds"`
	} `json:"slicer"`
	Mech struct {
		Replicates          int64   `json:"replicates"`
		ReplicatesPerSecond float64 `json:"replicates_per_second"`
	} `json:"mech"`
	// NumCPU records the host's logical CPU count so benchdiff can tell
	// whether the shard-scale gate is meaningful: on a 1-CPU host two
	// shard processes cannot beat one no matter how good the router is.
	NumCPU int `json:"num_cpu"`
	Serve  struct {
		Saturation satReport `json:"saturation"`
	} `json:"serve"`
}

// Saturation benchmark shape: satKeys distinct jobs are computed cold,
// then satRequests warm (cache-hit) round trips are driven through the
// router at satConcurrency in-flight requests. Small keys + a large warm
// phase isolates the serving tier — the pipeline cost is paid once.
const (
	satKeys        = 6
	satRequests    = 400
	satConcurrency = 16
)

// satTopology is one router-over-N-shards measurement.
type satTopology struct {
	Shards       int     `json:"shards"`
	ColdSeconds  float64 `json:"cold_seconds"`
	SustainedRPS float64 `json:"sustained_rps"`
	P50Millis    float64 `json:"p50_ms"`
	P99Millis    float64 `json:"p99_ms"`
	HedgeFired   int64   `json:"hedge_fired"`
}

// satReport is the serve.saturation section of the bench artifact:
// identical load against one shard and against two, both behind the
// consistent-hash router, with every shard pinned to GOMAXPROCS=1 so
// the two-shard column reflects genuine horizontal scaling.
type satReport struct {
	Keys        int         `json:"keys"`
	Requests    int         `json:"requests"`
	Concurrency int         `json:"concurrency"`
	OneShard    satTopology `json:"one_shard"`
	TwoShard    satTopology `json:"two_shard"`
}

// runShardChild is the shardChildEnv mode: one serve instance that
// lives exactly as long as its stdin pipe. The parent saturation run
// re-execs this binary per shard with GOMAXPROCS=1 and closes the pipe
// to stop it — no signals, no PID files, no orphan risk.
func runShardChild(addrFile string) error {
	s, err := serve.Start(serve.Options{Addr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(addrFile, []byte(s.Addr()+"\n"), 0o644); err != nil {
		s.Close()
		return err
	}
	io.Copy(io.Discard, os.Stdin)
	return s.Close()
}

// shardProc is a re-exec'd single-proc shard child.
type shardProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
}

// spawnShards re-execs this binary n times in `-exp shard` mode. Each
// child is pinned to GOMAXPROCS=1 so shard count — not the scheduler —
// decides how much CPU the topology gets.
func spawnShards(n int, dir string) ([]*shardProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	baseEnv := make([]string, 0, len(os.Environ())+2)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") && !strings.HasPrefix(kv, shardChildEnv+"=") {
			baseEnv = append(baseEnv, kv)
		}
	}
	baseEnv = append(baseEnv, "GOMAXPROCS=1")

	shards := make([]*shardProc, 0, n)
	fail := func(err error) ([]*shardProc, error) {
		stopShards(shards)
		return nil, err
	}
	for i := 0; i < n; i++ {
		addrFile := filepath.Join(dir, fmt.Sprintf("shard-%d.addr", i))
		cmd := exec.Command(exe)
		cmd.Env = append(append([]string(nil), baseEnv...), shardChildEnv+"="+addrFile)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return fail(err)
		}
		if err := cmd.Start(); err != nil {
			return fail(err)
		}
		sp := &shardProc{cmd: cmd, stdin: stdin}
		shards = append(shards, sp)

		deadline := time.Now().Add(15 * time.Second)
		for {
			if addr, ok := readAddrFile(addrFile); ok {
				sp.addr = addr
				break
			}
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("shard %d never wrote its address file", i))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return shards, nil
}

// readAddrFile returns the address a shard child wrote to path once the
// whole line is there. os.WriteFile creates the file before it writes
// it, so the file can exist empty or hold part of the address; only a
// newline-terminated line is complete.
func readAddrFile(path string) (string, bool) {
	data, err := os.ReadFile(path)
	if err != nil || !strings.HasSuffix(string(data), "\n") {
		return "", false
	}
	addr := strings.TrimSpace(string(data))
	return addr, addr != ""
}

// stopShards closes each child's stdin (its stop signal) and reaps it.
func stopShards(shards []*shardProc) {
	for _, sp := range shards {
		if sp == nil || sp.cmd == nil {
			continue
		}
		sp.stdin.Close()
		sp.cmd.Wait()
	}
}

func counterNow(name string) int64 {
	v, _ := obs.Default().Snapshot().Counter(name)
	return v
}

func satPost(client *http.Client, baseURL, body string) error {
	resp, err := client.Post(baseURL+"/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /jobs status %d", resp.StatusCode)
	}
	return nil
}

// saturateTopology boots nShards single-proc shard children behind an
// in-process router, pays the cold pipeline cost once per key, then
// measures sustained warm throughput and tail latency.
func saturateTopology(nShards int, dir string, seedBase int64) (satTopology, error) {
	top := satTopology{Shards: nShards}
	shards, err := spawnShards(nShards, dir)
	if err != nil {
		return top, err
	}
	defer stopShards(shards)

	addrs := make([]string, len(shards))
	for i, sp := range shards {
		addrs[i] = sp.addr
	}
	rt, err := shard.StartRouter(shard.RouterOptions{
		Addr:          "127.0.0.1:0",
		Shards:        addrs,
		ProbeInterval: -1, // no background probes in the measurement window
	})
	if err != nil {
		return top, err
	}
	defer rt.Close()

	client := &http.Client{Timeout: 60 * time.Second}
	bodies := make([]string, satKeys)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"seed": %d, "resolution": "coarse"}`, seedBase+int64(i))
	}
	hedge0 := counterNow("router.hedge.fired")

	t0 := time.Now()
	for _, b := range bodies {
		if err := satPost(client, rt.URL(), b); err != nil {
			return top, fmt.Errorf("cold pass: %w", err)
		}
	}
	top.ColdSeconds = time.Since(t0).Seconds()

	lat := make([]float64, satRequests)
	var next atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, satConcurrency)
	w0 := time.Now()
	for w := 0; w < satConcurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= satRequests {
					return
				}
				r0 := time.Now()
				if err := satPost(client, rt.URL(), bodies[i%satKeys]); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
				lat[i] = time.Since(r0).Seconds() * 1000
			}
		}()
	}
	wg.Wait()
	wall := time.Since(w0).Seconds()
	select {
	case err := <-errCh:
		return top, fmt.Errorf("warm pass: %w", err)
	default:
	}
	if wall > 0 {
		top.SustainedRPS = float64(satRequests) / wall
	}
	sort.Float64s(lat)
	top.P50Millis = lat[satRequests/2]
	top.P99Millis = lat[(satRequests*99+99)/100-1]
	top.HedgeFired = counterNow("router.hedge.fired") - hedge0
	return top, nil
}

// runSaturate runs the full saturation comparison: the same load against
// a one-shard and a two-shard topology.
func runSaturate(seed int64) (satReport, error) {
	rep := satReport{Keys: satKeys, Requests: satRequests, Concurrency: satConcurrency}
	dir, err := os.MkdirTemp("", "obfuscade-saturate-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)
	one, err := saturateTopology(1, filepath.Join(dir, "one"), seed)
	if err != nil {
		return rep, fmt.Errorf("one-shard topology: %w", err)
	}
	two, err := saturateTopology(2, filepath.Join(dir, "two"), seed)
	if err != nil {
		return rep, fmt.Errorf("two-shard topology: %w", err)
	}
	rep.OneShard, rep.TwoShard = one, two
	return rep, nil
}

// runSaturateCmd is `-exp saturate`: the saturation benchmark alone,
// printed for humans instead of embedded in the bench JSON.
func runSaturateCmd() error {
	rep, err := runSaturate(1)
	if err != nil {
		return err
	}
	fmt.Printf("saturation: %d keys, %d warm requests at concurrency %d (host CPUs: %d)\n",
		rep.Keys, rep.Requests, rep.Concurrency, runtime.NumCPU())
	for _, top := range []satTopology{rep.OneShard, rep.TwoShard} {
		fmt.Printf("  %d shard(s): cold %.2fs, sustained %.0f req/s, p50 %.2fms, p99 %.2fms, hedges %d\n",
			top.Shards, top.ColdSeconds, top.SustainedRPS, top.P50Millis, top.P99Millis, top.HedgeFired)
	}
	if rep.TwoShard.SustainedRPS > 0 && rep.OneShard.SustainedRPS > 0 {
		fmt.Printf("  shard scale: %.2fx\n", rep.TwoShard.SustainedRPS/rep.OneShard.SustainedRPS)
	}
	return nil
}

// runBench measures the serial-vs-pool quality matrix wall time and the
// layer/replicate throughput of the hot stages, writing the JSON report
// to out. Throughputs come from the obs counters, so the unit counts are
// exact rather than estimated.
func runBench(out string, replicates int, seed int64) error {
	prot, err := core.NewProtectedBar("bench-bar", false)
	if err != nil {
		return err
	}
	prof := printer.DimensionElite()
	reg := obs.Default()

	var rep benchReport
	rep.Schema = 1
	rep.GoVersion = runtime.Version()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Matrix.Workers = parallel.Default()

	type matrixRun struct {
		secs   float64
		layers int64
		keys   int
		allocs uint64
		bytes  uint64
	}
	matrix := func(workers int) (matrixRun, error) {
		reg.Reset()
		// Mallocs and TotalAlloc are monotonic, so the deltas are exact
		// allocation counts even with the GC running concurrently.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		entries, err := core.QualityMatrixWorkers(prot, prof, workers)
		secs := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return matrixRun{}, err
		}
		layers, _ := reg.Snapshot().Counter("slicer.layers.sliced")
		return matrixRun{
			secs: secs, layers: layers, keys: len(entries),
			allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		}, nil
	}

	serialRun, err := matrix(1)
	if err != nil {
		return fmt.Errorf("serial matrix: %w", err)
	}
	parRun, err := matrix(0)
	if err != nil {
		return fmt.Errorf("parallel matrix: %w", err)
	}
	serial, par := serialRun.secs, parRun.secs
	rep.Matrix.Keys = serialRun.keys
	rep.Matrix.SerialSeconds = serial
	rep.Matrix.ParallelSeconds = par
	if par > 0 {
		rep.Matrix.Speedup = serial / par
	}
	if parRun.keys > 0 {
		rep.Matrix.AllocsPerKey = int64(parRun.allocs) / int64(parRun.keys)
		rep.Matrix.BytesPerKey = int64(parRun.bytes) / int64(parRun.keys)
	}
	rep.Slicer.Layers = parRun.layers
	if par > 0 {
		rep.Slicer.LayersPerSecond = float64(parRun.layers) / par
	}
	// The matrix() reset scoped the registry to the parallel run, so the
	// stage histogram sums are exactly that run's stage splits: the
	// index-build serial prologue, the tessellation builds (shared — one
	// per resolution and CAD op, not per key) and the voxel-domain
	// deposition/healing/support/washout block.
	snap := reg.Snapshot()
	if h, ok := snap.Stage("slicer.index.build.seconds"); ok {
		rep.Slicer.IndexBuildSeconds = h.SumSeconds
	}
	if h, ok := snap.Stage("tessellate.mesh.seconds"); ok {
		rep.Stages.TessellateSeconds = h.SumSeconds
	}
	if h, ok := snap.Stage("printer.voxel.seconds"); ok {
		rep.Stages.VoxelSeconds = h.SumSeconds
	}

	// Replicate throughput: a seam specimen group on the shared pool.
	reg.Reset()
	spec := mech.Specimen{Mat: mech.ABS(mech.XY), SeamPresent: true, SeamQuality: 0.35, Kt: 2.6}
	t0 := time.Now()
	for g := 0; g < 4; g++ {
		if _, err := mech.TestGroup(fmt.Sprintf("bench-%d", g), spec, replicates, seed+int64(g)); err != nil {
			return fmt.Errorf("replicate bench: %w", err)
		}
	}
	mechSecs := time.Since(t0).Seconds()
	reps, _ := reg.Snapshot().Counter("mech.replicates")
	rep.Mech.Replicates = reps
	if mechSecs > 0 {
		rep.Mech.ReplicatesPerSecond = float64(reps) / mechSecs
	}

	// Serving-tier saturation: router over re-exec'd single-proc shards.
	rep.NumCPU = runtime.NumCPU()
	sat, err := runSaturate(seed)
	if err != nil {
		return fmt.Errorf("saturation bench: %w", err)
	}
	rep.Serve.Saturation = sat

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench report written to %s (matrix %d keys: serial %.2fs, parallel %.2fs, speedup %.2fx; saturate 1->2 shards: %.0f -> %.0f req/s)\n",
		out, rep.Matrix.Keys, serial, par, rep.Matrix.Speedup,
		sat.OneShard.SustainedRPS, sat.TwoShard.SustainedRPS)
	return nil
}
