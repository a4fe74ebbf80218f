package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"obfuscade/internal/core"
	"obfuscade/internal/printer"
)

// matrixSetups is how many fresh processes a matrix run starts only to
// time its set-up, so setup_s is a median of cold samples.
const matrixSetups = 3

// buildDesigns builds the four protected designs, in parts order.
func buildDesigns() ([]*core.Protected, error) {
	prots := make([]*core.Protected, len(parts))
	for i, name := range parts {
		p, err := core.BuildProtected(name)
		if err != nil {
			return nil, err
		}
		prots[i] = p
	}
	return prots, nil
}

// sweep runs the quality matrix of every design with the given pool
// size and returns its wall time; outputs are checked against the pins
// after the clock stops.
func sweep(o *outcome, prots []*core.Protected, prof printer.Profile, workers int, pins pinTable) (time.Duration, error) {
	entries := make([][]core.MatrixEntry, len(prots))
	t0 := time.Now()
	for i, prot := range prots {
		es, err := core.QualityMatrixWorkers(prot, prof, workers)
		if err != nil {
			return 0, fmt.Errorf("matrix %s: %w", prot.Part.Name, err)
		}
		entries[i] = es
	}
	wall := time.Since(t0)
	n := 0
	for i, es := range entries {
		for _, e := range es {
			n++
			id := pinID(parts[i], e.Key)
			p, ok := pins.byID[id]
			o.check(ok && e.Err == nil && e.Provenance.STLSHA256 == p.STLSHA256 && e.Quality.Grade.String() == p.Grade,
				"matrix workers=%d %s: grade %s stl %s", workers, id, e.Quality.Grade, e.Provenance.STLSHA256)
		}
	}
	o.check(n == len(pins.list), "matrix workers=%d swept %d keys, want %d", workers, n, len(pins.list))
	return wall, nil
}

// setUpMatrix is the matrix set-up: building the four designs plus one
// checked sweep on the pool.
func setUpMatrix(o *outcome, prof printer.Profile, workers int, pins pinTable) ([]*core.Protected, error) {
	prots, err := buildDesigns()
	if err != nil {
		return nil, err
	}
	if _, err := sweep(o, prots, prof, workers, pins); err != nil {
		return nil, err
	}
	return prots, nil
}

// matrixSetupOnly is the -setup-only mode: one set-up in this fresh
// process, then its check counts as one JSON line.
func matrixSetupOnly(cfg config) error {
	o := newOutcome()
	pins, err := loadPins()
	if err != nil {
		return err
	}
	if _, err := setUpMatrix(o, printer.DimensionElite(), cfg.nproc, pins); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]int{"attempted": o.attempted, "failed": o.failed})
}

// coldSetup times one matrix set-up in a fresh perfbench process, from
// its start to its exit. Every sample thus pays for the program's
// one-time work: package initialisation, lazily built tables and heap
// growth. The child's checks count in o.
func coldSetup(o *outcome) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("matrix set-up process: %w", err)
	}
	d := time.Since(t0)
	var c struct{ Attempted, Failed int }
	if err := json.Unmarshal(out.Bytes(), &c); err != nil {
		return 0, fmt.Errorf("matrix set-up process: %w", err)
	}
	o.attempted += c.Attempted
	o.failed += c.Failed
	return d, nil
}

// runMatrix is the paper's key-space sweep: every key of every design
// through core.QualityMatrixWorkers, alternating a pool of nproc workers
// with workers=1 until the budget is spent.
func runMatrix(cfg config) (*outcome, error) {
	if cfg.trace {
		return traceMatrix(cfg)
	}
	o := newOutcome()
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	prof := printer.DimensionElite()
	var setups []float64
	for i := 0; i < matrixSetups; i++ {
		d, err := coldSetup(o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	// This process's own set-up is untimed: it warms the process, so the
	// timed sweeps below all run warm.
	prots, err := setUpMatrix(o, prof, cfg.nproc, pins)
	if err != nil {
		return nil, err
	}
	var pool, serial, rss []float64
	for len(serial) < 3 || time.Now().Before(cfg.deadline) {
		// Each pool sweep starts from a collected heap and a cleared peak,
		// so its peak RSS is its own.
		runtime.GC()
		resetSelfPeakRSS()
		w, err := sweep(o, prots, prof, cfg.nproc, pins)
		if err != nil {
			return nil, err
		}
		pool = append(pool, w.Seconds())
		rss = append(rss, selfPeakRSSMB())
		if w, err = sweep(o, prots, prof, 1, pins); err != nil {
			return nil, err
		}
		serial = append(serial, w.Seconds())
	}
	keys := float64(len(pins.list))
	o.set("setup_s", median(setups), "s")
	o.set("throughput_per_s", keys/median(pool), "1/s")
	o.set("serial_throughput_per_s", keys/median(serial), "1/s")
	o.set("latency_p50_ms", 1000*median(pool), "ms")
	o.set("peak_rss_mb", median(rss), "MB")
	o.note("rounds", float64(len(pool)), "count")
	return o, nil
}
