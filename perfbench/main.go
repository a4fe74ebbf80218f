// Command perfbench is the repository benchmark. It runs one workload
// against the ObfusCADe pipeline and job service, checks every output
// against pinned digests, and prints one JSON result line:
//
//	perfbench -obfuscade <serve binary> -workload matrix|jobs_cold \
//	    -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// a separate traced run carries the per-layer metrics. run.sh builds
// both binaries from the checkout and is the entry point BENCHMARK.json
// names. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// config is the parsed command line plus the derived environment.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	obfuscade string
	outDir    string
	nproc     int
	deadline  time.Time
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome accumulates a run's checked operations and its metrics.
// Notes are figures the run prints in its report line but does not put
// in the gated result line.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]metric
	notes     map[string]metric
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, notes: map[string]metric{}}
}

// check counts one checked operation; a false ok is a failure and is
// described on stderr.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(name string, v float64, unit string) {
	o.notes[name] = metric{Value: v, Unit: unit}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"matrix":    runMatrix,
	"jobs_cold": runJobsCold,
}

func main() {
	var cfg config
	var traceFlag int
	var pinOut string
	var setupOnly bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: matrix or jobs_cold")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement budget in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&cfg.obfuscade, "obfuscade", "", "path to the obfuscade binary the serving workloads start")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for server cache dirs and span files")
	flag.StringVar(&pinOut, "pin", "", "regenerate the pinned digest table into this file and exit")
	flag.BoolVar(&setupOnly, "setup-only", false, "run one matrix set-up, print its checks and exit (matrix times these in fresh processes)")
	flag.Parse()
	cfg.nproc = runtime.NumCPU()

	if setupOnly {
		if err := matrixSetupOnly(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	if pinOut != "" {
		if err := writePins(pinOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want -workload matrix|jobs_cold, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"seconds":    cfg.seconds,
		"nproc":      cfg.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goarch":     runtime.GOARCH,
	})
	fmt.Printf("{\"env\":%s}\n", env)

	cfg.deadline = time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	if out.attempted > 0 {
		out.note("failed_ratio", float64(out.failed)/float64(out.attempted), "ratio")
	}
	report, err := json.Marshal(out.notes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("{\"report\":%s}\n", report)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
