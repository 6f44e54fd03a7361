package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command
// reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles are Python's statistics.quantiles(xs, n=4), the default
// "exclusive" method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// steady runs every workload -runs times, each with another seed, and
// prints each end-to-end metric's spread (interquartile distance over the
// median) against its bound; the target is a third of the bound. It also
// requires every run of a workload to fail the same share of its
// operations. It reads BENCHMARK.json from the working directory and
// runs each workload for its run_seconds.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	var (
		runs   = fs.Int("runs", 10, "runs per workload")
		seed0  = fs.Int64("seed0", 1, "first seed; run k uses seed0+k")
		only   = fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
		daemon = fs.String("monitord", "", "path of the built cmd/monitord binary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	steadyAll := true
	for _, w := range names {
		values := make(map[string][]float64)
		var (
			shares []string
			first  result
		)
		for k := 0; k < *runs; k++ {
			seed := *seed0 + int64(k)
			cmd := exec.Command(self, "-monitord", *daemon, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect output", w, seed)
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			if k == 0 {
				first = res
			} else if res.Failed*first.Attempted != first.Failed*res.Attempted {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: failed share %d/%d differs from the first run's %d/%d\n",
					w, seed, res.Failed, res.Attempted, first.Failed, first.Attempted)
				steadyAll = false
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "steady: %s seed %d:", w, seed)
			for _, e := range bf.EndToEnd {
				fmt.Fprintf(os.Stderr, " %s=%.5g", e.Name, res.Metrics[e.Name].Value)
			}
			fmt.Fprintln(os.Stderr)
		}
		fmt.Printf("%s (%d runs, failed/attempted %s)\n", w, *runs, strings.Join(shares, " "))
		fmt.Printf("  %-18s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, e := range bf.EndToEnd {
			xs := values[e.Name]
			if len(xs) == 0 {
				return fmt.Errorf("%s: no %s in the result", w, e.Name)
			}
			q1, q2, q3 := quartiles(xs)
			spread := (q3 - q1) / q2
			mark := ""
			if spread > e.Bound/3 {
				mark, steadyAll = "  above a third of the bound", false
			}
			fmt.Printf("  %-18s %12.5g %12.5g %12.5g %7.2f%% %5.0f%%%s\n", e.Name+" "+e.Unit, q2, q1, q3, 100*spread, 100*e.Bound, mark)
		}
	}
	if !steadyAll {
		return errors.New("some spreads are above a third of their bound")
	}
	return nil
}
