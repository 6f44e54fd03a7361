// Command perfbench is the repository's benchmark: one closed-loop run of
// one workload, measured end to end (--trace 0) or layer by layer
// (--trace 1), with every output checked against the benchmark's own model.
// It prints one JSON object as the last line of standard output.
//
// Run it through run.sh, which builds cmd/monitord and this package first:
//
//	bash perfbench/run.sh --workload worst-churn --seed 1 --seconds 45 --trace 0
//	bash perfbench/run.sh steady -runs 10       # spread of every end-to-end metric
//
// See README.md for the workloads, the metrics and the reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	daemon  string // path of the built cmd/monitord binary
}

// workloads are the runs by name. BENCHMARK.json declares worst-churn
// and sweep; serve-mixed is left out of it as unsteady on a shared
// machine (README.md, Steadiness).
var workloads = map[string]func(runConfig) (result, error){
	"serve-mixed": runServeMixed,
	"worst-churn": runWorstChurn,
	"sweep":       runSweep,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "serve-mixed, worst-churn or sweep")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = per-layer run, 0 = end-to-end run")
		daemon   = flag.String("monitord", "", "path of the built cmd/monitord binary")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have serve-mixed, worst-churn, sweep)\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		daemon:  *daemon,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// failures counts failed operations and reports the first few on stderr.
type failures struct {
	n int
}

func (f *failures) add(format string, args ...any) {
	f.n++
	if f.n <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: failed op: "+format+"\n", args...)
	}
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// setupSchedule spreads a run's repeated set-ups over its timed loop: the
// first is made before the loop, and set-up k of n falls due once k/n of
// the run has passed. On a shared machine the speed drifts within a run;
// spread out, the set-ups meet the same spells as the loop's operations
// rather than one spell at the start.
type setupSchedule struct {
	n, made int // set-ups in all, and made so far (the first included)
	seconds time.Duration
	run     func() error
}

// due makes every set-up that has fallen due by elapsed.
func (s *setupSchedule) due(elapsed time.Duration) error {
	for s.made < s.n && elapsed >= time.Duration(s.made)*s.seconds/time.Duration(s.n) {
		s.made++
		if err := s.run(); err != nil {
			return err
		}
	}
	return nil
}

// endToEnd assembles the five end-to-end metrics from per-operation
// latencies and the serving process's counters.
func endToEnd(setups []float64, lat []time.Duration, cpu time.Duration, peakRSSKB float64) map[string]metric {
	var busy time.Duration
	for _, d := range lat {
		busy += d
	}
	ms := millis(lat)
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_per_s": {float64(len(lat)) / busy.Seconds(), "1/s"},
		"latency_p50_ms":   {quantile(ms, 0.50), "ms"},
		"cpu_ms_per_op":    {float64(cpu) / float64(time.Millisecond) / float64(len(lat)), "ms"},
		"peak_rss_mb":      {peakRSSKB / 1024, "MB"},
	}
}

// logTail prints the operation count and the 90th and 99th percentiles
// to standard error, for reference beside the declared metrics; the
// tail is not declared, as it could not be made steady on a shared
// machine (README.md, Steadiness).
func logTail(lat []time.Duration) {
	ms := millis(lat)
	fmt.Fprintf(os.Stderr, "perfbench: %d ops, latency p90 %.4f ms, p99 %.4f ms\n", len(lat), quantile(ms, 0.90), quantile(ms, 0.99))
}

// millis converts durations to milliseconds.
func millis(lat []time.Duration) []float64 {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return ms
}
