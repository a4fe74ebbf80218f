package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestMain intercepts the saturation benchmark's re-exec protocol: when
// runBench spawns shard children via os.Executable(), that executable is
// the *test binary*, so the child mode must be handled here before the
// testing framework takes over.
func TestMain(m *testing.M) {
	if addrFile := os.Getenv(shardChildEnv); addrFile != "" {
		if err := runShardChild(addrFile); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// A shard child's address file can be seen before it is fully written:
// empty, or holding part of the address. Only a newline-terminated line
// counts as the address.
func TestReadAddrFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0.addr")
	if _, ok := readAddrFile(path); ok {
		t.Error("missing file read as an address")
	}
	for _, partial := range []string{"", "127.0.0.1:", "127.0.0.1:45678", "\n"} {
		if err := os.WriteFile(path, []byte(partial), 0o644); err != nil {
			t.Fatal(err)
		}
		if addr, ok := readAddrFile(path); ok {
			t.Errorf("partial file %q read as address %q", partial, addr)
		}
	}
	if err := os.WriteFile(path, []byte("127.0.0.1:45678\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if addr, ok := readAddrFile(path); !ok || addr != "127.0.0.1:45678" {
		t.Errorf("complete file read as %q, %v; want 127.0.0.1:45678", addr, ok)
	}
}

func TestRunSingleExperiments(t *testing.T) {
	// The fast experiments, one by one; the slow ones (table2, polyjet)
	// are covered by the experiments package tests and the benchmarks.
	for _, exp := range []string{"table1", "fig2", "fig5", "fig6", "fig9"} {
		if err := run(runOpts{exp: exp, n: 2, seed: 1}); err != nil {
			t.Errorf("run(%s): %v", exp, err)
		}
	}
}

func TestRunCSV(t *testing.T) {
	if err := run(runOpts{exp: "fig5", n: 2, seed: 1, csv: true}); err != nil {
		t.Errorf("run csv: %v", err)
	}
}

func TestRunUnknown(t *testing.T) {
	err := run(runOpts{exp: "nope", n: 2, seed: 1})
	if err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	// The unknown-experiment error must stay identifiable so main can exit
	// with the dedicated code (3), distinguishable from flag-parse errors
	// (2) and experiment failures (1).
	if !errors.Is(err, errUnknownExperiment) {
		t.Errorf("error %v does not wrap errUnknownExperiment", err)
	}
}

func TestKnownExperimentErrorIsNotUnknown(t *testing.T) {
	// A run that executed (successfully or not) must never be classified
	// as an unknown experiment.
	if err := run(runOpts{exp: "fig5", n: 2, seed: 1}); errors.Is(err, errUnknownExperiment) {
		t.Errorf("fig5 misclassified as unknown experiment: %v", err)
	}
}

func TestRunBenchJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := runBench(out, 4, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("bench report is not valid JSON: %v", err)
	}
	if rep.Schema != 1 {
		t.Errorf("schema = %d", rep.Schema)
	}
	if rep.Matrix.Keys != 6 {
		t.Errorf("matrix keys = %d, want 6", rep.Matrix.Keys)
	}
	if rep.Matrix.SerialSeconds <= 0 || rep.Matrix.ParallelSeconds <= 0 {
		t.Errorf("non-positive wall times: serial %g, parallel %g",
			rep.Matrix.SerialSeconds, rep.Matrix.ParallelSeconds)
	}
	if rep.Slicer.Layers <= 0 || rep.Slicer.LayersPerSecond <= 0 {
		t.Errorf("slicer throughput missing: %d layers, %g layers/s",
			rep.Slicer.Layers, rep.Slicer.LayersPerSecond)
	}
	if rep.Slicer.IndexBuildSeconds <= 0 {
		t.Errorf("index build seconds = %g, want > 0", rep.Slicer.IndexBuildSeconds)
	}
	if rep.Mech.Replicates != 16 {
		t.Errorf("replicates = %d, want 4 groups x 4", rep.Mech.Replicates)
	}
	if rep.Mech.ReplicatesPerSecond <= 0 {
		t.Errorf("replicates/s = %g", rep.Mech.ReplicatesPerSecond)
	}
	if rep.NumCPU < 1 {
		t.Errorf("num_cpu = %d, want >= 1", rep.NumCPU)
	}
	sat := rep.Serve.Saturation
	if sat.Keys != satKeys || sat.Requests != satRequests || sat.Concurrency != satConcurrency {
		t.Errorf("saturation shape = %d/%d/%d, want %d/%d/%d",
			sat.Keys, sat.Requests, sat.Concurrency, satKeys, satRequests, satConcurrency)
	}
	for _, top := range []satTopology{sat.OneShard, sat.TwoShard} {
		if top.SustainedRPS <= 0 || top.ColdSeconds <= 0 {
			t.Errorf("%d-shard topology not measured: %+v", top.Shards, top)
		}
		if top.P99Millis < top.P50Millis || top.P50Millis <= 0 {
			t.Errorf("%d-shard latency quantiles inconsistent: p50 %g, p99 %g",
				top.Shards, top.P50Millis, top.P99Millis)
		}
	}
	if sat.OneShard.Shards != 1 || sat.TwoShard.Shards != 2 {
		t.Errorf("topology shard counts = %d/%d, want 1/2", sat.OneShard.Shards, sat.TwoShard.Shards)
	}
}
