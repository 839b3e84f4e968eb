// Command perfbench is uvmasim's benchmark: one program that runs the
// three workloads of the benchmark ledger (suite-cold, serve-mix,
// store-rerun) through the same public entry points the uvmbench CLI
// and server use, checks every output, and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds this package and the uvmbench CLI
// from the checkout it sits in. LEDGER.md records why each workload
// exists and which metric each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times each workload repeats its set-up in an
// end-to-end run; setup_s is the median.
const setupReps = 7

// minReps is the fewest measured repetitions a phase runs, even past
// its deadline, so every median rests on several passes.
const minReps = 3

// bench is one invocation: the workload's inputs and settings, and the
// report it fills.
type bench struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	nproc     int
	cli       string // the uvmbench binary, for the suite-cold reference
	work      string // scratch directory for stores, traces and profiles
	cal       *calibrator
	slowdowns []float64 // every host slowdown measured, for the report

	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

// op records one attempted operation; a non-nil err counts it failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.problem(err)
	}
}

// problem records an output-check failure for the report, keeping the
// first few so a systematic mismatch does not flood standard error.
func (b *bench) problem(err error) {
	if len(b.problems) < 5 {
		b.problems = append(b.problems, err.Error())
	}
}

func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// slowdown measures the host's current slowdown on n goroutines (see
// calib.go); end-to-end timings are divided by it.
func (b *bench) slowdown(n int) float64 {
	f := b.cal.slowdown(n)
	b.slowdowns = append(b.slowdowns, f)
	return f
}

// deadline is when the measured phase that starts now should end.
func (b *bench) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * b.seconds * float64(time.Second)))
}

// runners maps each workload name to its runner. Each runner sets
// every end-to-end metric, or with b.traced every per-layer metric.
var runners = map[string]func(*bench) error{
	"suite-cold":  runSuiteCold,
	"serve-mix":   runServeMix,
	"store-rerun": runStoreRerun,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: suite-cold, serve-mix or store-rerun")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	cli := fs.String("uvmbench", "", "path of the uvmbench binary built from the same checkout")
	work := fs.String("work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for stores, traces and profiles")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	fn, ok := runners[*workload]
	if !ok {
		names := make([]string, 0, len(runners))
		for n := range runners {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown --workload %q (want one of %v)", *workload, names)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if *cli == "" {
		return fmt.Errorf("--uvmbench is required (run.sh builds and passes it)")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return fmt.Errorf("work directory: %w", err)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traceFlag == 1,
		nproc:    runtime.GOMAXPROCS(0),
		cli:      *cli,
		work:     *work,
		metrics:  make(map[string]metric),
	}
	b.cal = newCalibrator(b.nproc)
	if err := fn(b); err != nil {
		return fmt.Errorf("%s: %w", b.workload, err)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	if len(b.slowdowns) > 0 {
		fmt.Printf("host slowdown: median %.4g of %d calibrations (pass times above are divided by it)\n",
			median(b.slowdowns), len(b.slowdowns))
	}
	fmt.Printf("attempted %d, failed %d, failed_frac %.4g\n", b.attempted, b.failed,
		float64(b.failed)/float64(max(b.attempted, 1)))
	line, err := json.Marshal(result{
		Correct:   b.failed == 0 && len(b.problems) == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
