// Command benchdiff is the CI perf-regression gate: it compares the
// BENCH_obfuscade.json artifact written by `make bench` (paperbench
// -exp bench) against the committed baseline and fails when the parallel
// quality-matrix wall time regresses beyond the tolerance.
//
// Usage:
//
//	go run ./scripts -baseline BENCH_baseline.json \
//	    -current BENCH_obfuscade.json [-tolerance 0.30] [-max-serial-ratio 1.25] \
//	    [-min-matrix-speedup 2.5] [-alloc-tolerance 0.30] \
//	    [-slicer-tolerance 0.30] [-throughput-tolerance 0.40] [-enforce-throughput] \
//	    [-require-multiproc] [-min-shard-scale 1.0] [-saturate-p99-tolerance 1.0]
//
// Eight gates run:
//
//  1. Regression: current parallel matrix wall time must not exceed
//     baseline * (1 + tolerance). Absolute wall times differ across
//     machines, which is why the tolerance is generous; re-baseline with
//     `make bench && cp BENCH_obfuscade.json BENCH_baseline.json` after an
//     intentional perf change.
//  2. Pool sanity (machine-independent): on a multi-core host the pool
//     must not run slower than the serial baseline by more than
//     -max-serial-ratio. Skipped with a warning when either report was
//     produced single-proc (GOMAXPROCS=1 or a 1-worker pool): a
//     "parallel" run on one processor is just a serial run, so its
//     speedup carries no signal. Under -require-multiproc (the default
//     when the CI env var is set) a single-proc report is itself a
//     failure — the CI bench environment promises multi-proc runs, so a
//     skip there means the environment regressed. On multi-proc reports
//     the pool must additionally reach -min-matrix-speedup over the
//     serial run (machine-independent: both columns come from the same
//     report) — the per-group shared tessellation and zero-alloc hot
//     paths exist to keep this floor reachable. The floor itself skips
//     (with a warning) when min(num_cpu, workers) cannot physically
//     reach it: GOMAXPROCS can be env-pinned above the core count, so
//     num_cpu is the capacity signal, as in the shard-scale gate.
//     2b. Allocation budget (warn-only): matrix allocs/key must not grow
//     more than -alloc-tolerance over the baseline. Warn-only because
//     allocation counts shift with Go runtime versions; the warning is
//     the review prompt, the re-baseline is the decision.
//  3. Slicer throughput (enforced): layers/s must not drop more than
//     -slicer-tolerance below the baseline. The indexed slicing kernels
//     make this the one throughput number CI guards strictly.
//  4. Throughput: mech replicates/s must not drop more than
//     -throughput-tolerance below the baseline. Warn-only by default
//     (throughput is noisier than wall time on shared CI runners);
//     -enforce-throughput promotes the warnings to failures.
//  5. Shard scale (machine-independent): the two-shard saturation
//     topology must sustain more than -min-shard-scale times the
//     one-shard req/s within the same report. Each shard is pinned to
//     GOMAXPROCS=1 by paperbench, so this holds on any >=2-CPU host;
//     skipped with a warning when the current host has one CPU.
//  6. Saturation tail latency: the two-shard warm p99 must not exceed
//     baseline * (1 + -saturate-p99-tolerance). Generous by default —
//     sub-10ms tails are noisy across machines.
//
// Exit code 0 when the enforced gates pass, 1 on a regression or
// unreadable input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

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
		AllocsPerKey    int64   `json:"allocs_per_key"`
		BytesPerKey     int64   `json:"bytes_per_key"`
	} `json:"matrix"`
	Stages struct {
		TessellateSeconds float64 `json:"tessellate_seconds"`
		VoxelSeconds      float64 `json:"voxel_seconds"`
	} `json:"stages"`
	Slicer struct {
		Layers            int64   `json:"layers"`
		LayersPerSecond   float64 `json:"layers_per_second"`
		IndexBuildSeconds float64 `json:"index_build_seconds"`
	} `json:"slicer"`
	Mech struct {
		Replicates          int64   `json:"replicates"`
		ReplicatesPerSecond float64 `json:"replicates_per_second"`
	} `json:"mech"`
	NumCPU int `json:"num_cpu"`
	Serve  struct {
		Saturation struct {
			Keys        int         `json:"keys"`
			Requests    int         `json:"requests"`
			Concurrency int         `json:"concurrency"`
			OneShard    satTopology `json:"one_shard"`
			TwoShard    satTopology `json:"two_shard"`
		} `json:"saturation"`
	} `json:"serve"`
}

// satTopology mirrors paperbench's per-topology saturation measurement.
type satTopology struct {
	Shards       int     `json:"shards"`
	ColdSeconds  float64 `json:"cold_seconds"`
	SustainedRPS float64 `json:"sustained_rps"`
	P50Millis    float64 `json:"p50_ms"`
	P99Millis    float64 `json:"p99_ms"`
	HedgeFired   int64   `json:"hedge_fired"`
}

// gateOpts are the thresholds the gates evaluate against.
type gateOpts struct {
	// Tolerance is the allowed fractional wall-time regression of the
	// parallel matrix.
	Tolerance float64
	// MaxSerialRatio bounds parallel/serial wall time on multi-core hosts.
	MaxSerialRatio float64
	// MinMatrixSpeedup is the parallel-over-serial speedup floor the
	// matrix must reach on multi-proc reports; 0 disables the gate.
	// Machine-independent like MaxSerialRatio: both columns come from
	// the same report.
	MinMatrixSpeedup float64
	// AllocTolerance is the allowed fractional growth of matrix
	// allocs/key over the baseline. Always warn-only: allocation counts
	// move with Go runtime versions, so a trip is a review prompt, not a
	// hard failure.
	AllocTolerance float64
	// SlicerTolerance is the allowed fractional drop in slicer layers/s;
	// unlike ThroughputTolerance this gate always fails on regression.
	SlicerTolerance float64
	// ThroughputTolerance is the allowed fractional drop in mech
	// replicates/s.
	ThroughputTolerance float64
	// EnforceThroughput promotes throughput warnings to failures.
	EnforceThroughput bool
	// RequireMultiProc turns a single-proc speedup-gate skip into a
	// failure: the CI bench environment pins GOMAXPROCS>1, so a
	// single-proc report there means the environment regressed.
	RequireMultiProc bool
	// MinShardScale is the factor by which the two-shard saturation
	// topology must beat the one-shard one on sustained req/s.
	MinShardScale float64
	// SaturateP99Tolerance is the allowed fractional regression of the
	// two-shard warm p99 versus the baseline.
	SaturateP99Tolerance float64
}

// gateResult is the outcome of one evaluate pass: failures gate the exit
// code, warnings are advisory.
type gateResult struct {
	Failures []string
	Warnings []string
}

func (r gateResult) ok() bool { return len(r.Failures) == 0 }

// evaluate runs every gate against the two reports and returns the
// failures and warnings. Pure — no I/O — so the CI policy is unit
// testable.
func evaluate(base, cur benchReport, opts gateOpts) gateResult {
	var res gateResult
	// A zero/absent baseline metric carries no signal: a ratio against it
	// is NaN, a limit derived from it is 0 (an automatic false-fail for
	// wall times, a silent false-pass for throughputs). New metrics start
	// life with no baseline — "pin, don't gate": warn that the current
	// value becomes the reference at the next re-baseline, and skip the
	// comparison.
	pin := func(name string, curVal float64, unit string) {
		if curVal <= 0 {
			return // not measured on either side: nothing to pin or gate
		}
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"%s has no baseline (zero/absent): pinning current %.3f%s as the new reference, not gating; re-baseline to start enforcing",
			name, curVal, unit))
	}
	if base.Matrix.ParallelSeconds <= 0 {
		pin("parallel matrix wall", cur.Matrix.ParallelSeconds, "s")
	} else if limit := base.Matrix.ParallelSeconds * (1 + opts.Tolerance); cur.Matrix.ParallelSeconds > limit {
		res.Failures = append(res.Failures, fmt.Sprintf(
			"parallel matrix wall %.3fs exceeds baseline %.3fs + %.0f%% tolerance (limit %.3fs)",
			cur.Matrix.ParallelSeconds, base.Matrix.ParallelSeconds, 100*opts.Tolerance, limit))
	}
	// The speedup comparison needs both reports to come from genuinely
	// parallel runs: with GOMAXPROCS=1 or a 1-worker pool the "parallel"
	// matrix is a serial run wearing a different label, and its speedup
	// (or lack of one) is meaningless. Skip loudly rather than fail or
	// silently pass.
	singleProc := func(r benchReport) bool {
		return r.GOMAXPROCS <= 1 || r.Matrix.Workers == 1
	}
	if singleProc(base) || singleProc(cur) {
		msg := fmt.Sprintf(
			"pool-sanity (speedup) gate skipped: single-proc report (baseline gomaxprocs=%d workers=%d, current gomaxprocs=%d workers=%d)",
			base.GOMAXPROCS, base.Matrix.Workers, cur.GOMAXPROCS, cur.Matrix.Workers)
		if opts.RequireMultiProc {
			res.Failures = append(res.Failures,
				"multi-proc required but "+msg+"; fix the bench environment (set GOMAXPROCS>1) rather than skipping")
		} else {
			res.Warnings = append(res.Warnings, msg)
		}
	} else {
		if cur.Matrix.ParallelSeconds > cur.Matrix.SerialSeconds*opts.MaxSerialRatio {
			res.Failures = append(res.Failures, fmt.Sprintf(
				"parallel matrix (%.3fs) slower than %.2fx the serial run (%.3fs) on %d CPUs",
				cur.Matrix.ParallelSeconds, opts.MaxSerialRatio, cur.Matrix.SerialSeconds, cur.GOMAXPROCS))
		}
		// Speedup floor: the shared per-group tessellation plus the pooled
		// hot paths are supposed to keep the matrix compute-bound, so a
		// multi-proc pool that cannot clear the floor means the
		// parallel path regressed even if absolute wall times still fit
		// the cross-machine tolerance. The ideal speedup is bounded by
		// min(CPUs, workers) — GOMAXPROCS can be env-pinned above the
		// physical core count (the baseline-pinning recipe does exactly
		// that), so num_cpu is the honest capacity signal: a host whose
		// bound sits below the floor skips with a warning instead of
		// failing a target it cannot physically reach.
		if opts.MinMatrixSpeedup > 0 {
			bound := cur.NumCPU
			if cur.Matrix.Workers > 0 && cur.Matrix.Workers < bound {
				bound = cur.Matrix.Workers
			}
			switch {
			case float64(bound) < opts.MinMatrixSpeedup:
				res.Warnings = append(res.Warnings, fmt.Sprintf(
					"matrix speedup floor skipped: min(%d CPUs, %d workers) cannot reach %.2fx",
					cur.NumCPU, cur.Matrix.Workers, opts.MinMatrixSpeedup))
			case cur.Matrix.Speedup < opts.MinMatrixSpeedup:
				res.Failures = append(res.Failures, fmt.Sprintf(
					"matrix speedup %.2fx below the %.2fx floor (serial %.3fs, parallel %.3fs, %d workers on %d CPUs)",
					cur.Matrix.Speedup, opts.MinMatrixSpeedup,
					cur.Matrix.SerialSeconds, cur.Matrix.ParallelSeconds,
					cur.Matrix.Workers, cur.NumCPU))
			}
		}
	}
	// Allocation budget: warn-only by design (see the package comment) —
	// the zero-alloc hot paths are guarded by a prompt to look, not a
	// gate that blocks unrelated work on a runtime upgrade.
	if cur.Matrix.AllocsPerKey > 0 {
		if base.Matrix.AllocsPerKey <= 0 {
			pin("matrix allocs/key", float64(cur.Matrix.AllocsPerKey), "")
		} else if limit := float64(base.Matrix.AllocsPerKey) * (1 + opts.AllocTolerance); float64(cur.Matrix.AllocsPerKey) > limit {
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"matrix allocs/key %d exceeds baseline %d + %.0f%% tolerance (limit %.0f); run paperbench -memprofile to find the new allocation site",
				cur.Matrix.AllocsPerKey, base.Matrix.AllocsPerKey, 100*opts.AllocTolerance, limit))
		}
	}
	// Slicer layers/s is an enforced gate: the indexed slicing kernels
	// are a deliverable this repository documents, so losing more than
	// the tolerance fails CI outright.
	if base.Slicer.LayersPerSecond <= 0 {
		pin("slicer layers/s", cur.Slicer.LayersPerSecond, "")
	} else {
		floor := base.Slicer.LayersPerSecond * (1 - opts.SlicerTolerance)
		if cur.Slicer.LayersPerSecond < floor {
			res.Failures = append(res.Failures, fmt.Sprintf(
				"slicer layers %.1f/s below baseline %.1f/s - %.0f%% tolerance (floor %.1f/s)",
				cur.Slicer.LayersPerSecond, base.Slicer.LayersPerSecond,
				100*opts.SlicerTolerance, floor))
		}
	}
	throughput := func(name string, baseRate, curRate float64) {
		if baseRate <= 0 {
			pin(name, curRate, "/s")
			return
		}
		floor := baseRate * (1 - opts.ThroughputTolerance)
		if curRate >= floor {
			return
		}
		msg := fmt.Sprintf("%s %.1f/s below baseline %.1f/s - %.0f%% tolerance (floor %.1f/s)",
			name, curRate, baseRate, 100*opts.ThroughputTolerance, floor)
		if opts.EnforceThroughput {
			res.Failures = append(res.Failures, msg)
		} else {
			res.Warnings = append(res.Warnings, msg)
		}
	}
	throughput("mech replicates", base.Mech.ReplicatesPerSecond, cur.Mech.ReplicatesPerSecond)

	// Shard-scale gate: compares the two topologies inside the *current*
	// report, so it is machine-independent — both columns ran on the same
	// host minutes apart. Each shard is GOMAXPROCS=1-pinned, so the only
	// way two shards fail to beat one on a multi-CPU host is a routing or
	// serving regression.
	sat := cur.Serve.Saturation
	switch {
	case sat.TwoShard.SustainedRPS <= 0 || sat.OneShard.SustainedRPS <= 0:
		if opts.RequireMultiProc {
			res.Failures = append(res.Failures,
				"shard-scale gate: current report carries no saturation data; the CI bench must run paperbench -exp bench with the serve.saturation section")
		} else {
			res.Warnings = append(res.Warnings,
				"shard-scale gate skipped: no saturation data in the current report")
		}
	case cur.NumCPU < 2:
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"shard-scale gate skipped: host has %d CPU; two single-proc shards cannot outrun one", cur.NumCPU))
	case sat.TwoShard.SustainedRPS <= sat.OneShard.SustainedRPS*opts.MinShardScale:
		res.Failures = append(res.Failures, fmt.Sprintf(
			"two-shard saturation %.0f req/s does not beat one shard %.0f req/s x %.2f (scale %.2fx)",
			sat.TwoShard.SustainedRPS, sat.OneShard.SustainedRPS, opts.MinShardScale,
			sat.TwoShard.SustainedRPS/sat.OneShard.SustainedRPS))
	}

	// Saturation tail-latency gate: cross-machine like the wall-time
	// gates, hence the generous default tolerance.
	if basep99 := base.Serve.Saturation.TwoShard.P99Millis; basep99 <= 0 && sat.TwoShard.P99Millis > 0 {
		pin("two-shard warm p99", sat.TwoShard.P99Millis, "ms")
	} else if basep99 > 0 && sat.TwoShard.P99Millis > 0 {
		limit := basep99 * (1 + opts.SaturateP99Tolerance)
		if sat.TwoShard.P99Millis > limit {
			res.Failures = append(res.Failures, fmt.Sprintf(
				"two-shard warm p99 %.2fms exceeds baseline %.2fms + %.0f%% tolerance (limit %.2fms)",
				sat.TwoShard.P99Millis, basep99, 100*opts.SaturateP99Tolerance, limit))
		}
	}
	return res
}

func load(path string) (benchReport, error) {
	var rep benchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != 1 {
		return rep, fmt.Errorf("%s: unsupported schema %d", path, rep.Schema)
	}
	return rep, nil
}

func pct(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (cur - base) / base
}

func main() {
	baseline := flag.String("baseline", "BENCH_baseline.json", "committed baseline report")
	current := flag.String("current", "BENCH_obfuscade.json", "freshly measured report")
	tolerance := flag.Float64("tolerance", 0.30, "allowed fractional wall-time regression of the parallel matrix")
	maxSerialRatio := flag.Float64("max-serial-ratio", 1.25, "parallel matrix may be at most this multiple of the serial wall time (multi-core hosts only)")
	minMatrixSpeedup := flag.Float64("min-matrix-speedup", 2.5,
		"parallel matrix must reach this speedup over serial on multi-proc reports (0 disables)")
	allocTol := flag.Float64("alloc-tolerance", 0.30,
		"allowed fractional growth of matrix allocs/key vs baseline (warn-only)")
	slicerTol := flag.Float64("slicer-tolerance", 0.30, "allowed fractional drop in slicer layers/s (always enforced)")
	throughputTol := flag.Float64("throughput-tolerance", 0.40, "allowed fractional drop in mech replicates/s")
	enforceThroughput := flag.Bool("enforce-throughput", false, "fail (instead of warn) when a throughput gate trips")
	requireMultiProc := flag.Bool("require-multiproc", os.Getenv("CI") != "",
		"fail (instead of warn) when a report is single-proc or lacks saturation data (default: on when $CI is set)")
	minShardScale := flag.Float64("min-shard-scale", 1.0,
		"two-shard saturation req/s must beat one-shard by this factor (>=2-CPU hosts only)")
	satP99Tol := flag.Float64("saturate-p99-tolerance", 1.0,
		"allowed fractional regression of the two-shard warm p99 vs baseline")
	flag.Parse()

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}

	fmt.Printf("%-28s %12s %12s %9s\n", "metric", "baseline", "current", "delta")
	row := func(name string, b, c float64, unit string) {
		fmt.Printf("%-28s %10.3f%s %10.3f%s %+8.1f%%\n", name, b, unit, c, unit, pct(c, b))
	}
	row("matrix serial wall", base.Matrix.SerialSeconds, cur.Matrix.SerialSeconds, "s")
	row("matrix parallel wall", base.Matrix.ParallelSeconds, cur.Matrix.ParallelSeconds, "s")
	row("matrix speedup", base.Matrix.Speedup, cur.Matrix.Speedup, "x")
	row("matrix allocs/key", float64(base.Matrix.AllocsPerKey), float64(cur.Matrix.AllocsPerKey), " ")
	row("matrix MB alloc/key", float64(base.Matrix.BytesPerKey)/1e6, float64(cur.Matrix.BytesPerKey)/1e6, " ")
	row("stage tessellate", base.Stages.TessellateSeconds, cur.Stages.TessellateSeconds, "s")
	row("stage voxel", base.Stages.VoxelSeconds, cur.Stages.VoxelSeconds, "s")
	row("slicer layers/s", base.Slicer.LayersPerSecond, cur.Slicer.LayersPerSecond, " ")
	row("slicer index build", base.Slicer.IndexBuildSeconds, cur.Slicer.IndexBuildSeconds, "s")
	row("mech replicates/s", base.Mech.ReplicatesPerSecond, cur.Mech.ReplicatesPerSecond, " ")
	row("saturate 1-shard req/s", base.Serve.Saturation.OneShard.SustainedRPS, cur.Serve.Saturation.OneShard.SustainedRPS, " ")
	row("saturate 2-shard req/s", base.Serve.Saturation.TwoShard.SustainedRPS, cur.Serve.Saturation.TwoShard.SustainedRPS, " ")
	row("saturate 2-shard p99", base.Serve.Saturation.TwoShard.P99Millis, cur.Serve.Saturation.TwoShard.P99Millis, "ms")

	res := evaluate(base, cur, gateOpts{
		Tolerance:            *tolerance,
		MaxSerialRatio:       *maxSerialRatio,
		MinMatrixSpeedup:     *minMatrixSpeedup,
		AllocTolerance:       *allocTol,
		SlicerTolerance:      *slicerTol,
		ThroughputTolerance:  *throughputTol,
		EnforceThroughput:    *enforceThroughput,
		RequireMultiProc:     *requireMultiProc,
		MinShardScale:        *minShardScale,
		SaturateP99Tolerance: *satP99Tol,
	})
	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, "benchdiff: WARN:", w)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "benchdiff: FAIL:", f)
	}
	if !res.ok() {
		os.Exit(1)
	}
	fmt.Printf("benchdiff: OK (parallel matrix %.3fs within %.0f%% of baseline %.3fs)\n",
		cur.Matrix.ParallelSeconds, 100**tolerance, base.Matrix.ParallelSeconds)
}
