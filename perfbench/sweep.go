package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	_ "repro/internal/liveloop" // boots the live BFT loop for timelines that carry a live spec
	"repro/internal/scenario"
)

// The sweep workload: generated timelines across every profile, each run
// with the default invariants exactly as scenario.Sweep runs it with one
// worker, and each result checked by properties the benchmark states
// itself.

// sweepPool is the number of timelines set-up generates, a fifth of them
// per profile; one in five is lossy-wire. The timed loop cycles through
// the pool.
const sweepPool = 500

// sweepSetups is how many times the sweep's set-up runs, spread over the
// run (see setupSchedule); setup_s is the median.
const sweepSetups = 15

// pooled is one generated timeline after its JSON round trip, with the
// replica count the benchmark expects at the end of the run.
type pooled struct {
	profile  string
	tl       *scenario.Timeline
	replicas int
}

// generate returns timeline #index of the profile, or an error when the
// generator panics on it (disclosure-storm can schedule a disclosure past
// its horizon; see "Known faults" in README.md).
func generate(p scenario.GenProfile, seed int64, index int) (tl *scenario.Timeline, err error) {
	defer func() {
		if r := recover(); r != nil {
			tl, err = nil, fmt.Errorf("generate %s seed %d #%d: %v", p.Name, seed, index, r)
		}
	}()
	return p.Generate(seed, index), nil
}

// knownFault is a timeline address whose generation panics every time.
// Each sweep round attempts it once, after the pooled timelines, so the
// generator fault is one failed operation per round: the same share of
// failed operations on every seed and every run length, until the
// generator is fixed and the operation passes like any other.
var knownFault = struct {
	profile string
	seed    int64
	index   int
}{"disclosure-storm", 33, 6}

// knownFaultOp generates the timeline at the known-fault address, takes
// it through its JSON round trip and checks its run as a pooled one.
func knownFaultOp(invs []scenario.Invariant) error {
	p, ok := scenario.LookupProfile(knownFault.profile)
	if !ok {
		return fmt.Errorf("no profile %q", knownFault.profile)
	}
	tl, err := generate(p, knownFault.seed, knownFault.index)
	if err != nil {
		return err
	}
	pt, err := roundTrip(p.Name, tl)
	if err != nil {
		return err
	}
	res, violations, err := scenario.CheckRun(pt.tl.Def(), knownFault.seed, invs)
	if err != nil {
		return err
	}
	return checkSweepRun(pt, res, violations)
}

// roundTrip takes a timeline through its JSON form, as a stored or shrunk
// timeline is replayed.
func roundTrip(profile string, tl *scenario.Timeline) (pooled, error) {
	b, err := tl.MarshalIndent()
	if err != nil {
		return pooled{}, err
	}
	back, err := scenario.ParseTimeline(b)
	if err != nil {
		return pooled{}, fmt.Errorf("%s: %w", tl.Name, err)
	}
	return pooled{profile: profile, tl: back, replicas: expectReplicas(back)}, nil
}

// genPool generates the pool for a seed and round-trips every timeline
// through its JSON form. Pool slot i holds the (i/5)-th timeline the
// i%5-th profile generates cleanly. An index the generator panics on is
// named on standard error and passed over: which indices panic depends
// on the seed, so they cannot be a fixed share of failed operations; the
// fault is counted through knownFault instead. When s is not nil it
// receives the time of each generation and round trip.
func genPool(seed int64, s samples) ([]pooled, error) {
	profiles := scenario.Profiles()
	out := make([]pooled, sweepPool)
	next := make([]int, len(profiles))
	for i := range out {
		p := profiles[i%len(profiles)]
		var tl *scenario.Timeline
		for tl == nil {
			t0 := time.Now()
			var err error
			if tl, err = generate(p, seed, next[i%len(profiles)]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: passed over", err)
			} else if s != nil {
				s.add("scenario.generate_us", us(time.Since(t0)))
			}
			next[i%len(profiles)]++
		}
		t0 := time.Now()
		pt, err := roundTrip(p.Name, tl)
		if err != nil {
			return nil, err
		}
		if s != nil {
			s.add("scenario.roundtrip_us", us(time.Since(t0)))
		}
		out[i] = pt
	}
	return out, nil
}

// expectReplicas counts joins less leaves: the membership a run must end
// with.
func expectReplicas(tl *scenario.Timeline) int {
	n := 0
	for _, ev := range tl.Events {
		switch ev.Op {
		case scenario.OpJoin:
			n++
		case scenario.OpLeave:
			n--
		}
	}
	return n
}

// checkSweepRun verifies one run's result against the stated properties.
func checkSweepRun(p pooled, res *scenario.Result, violations []scenario.Violation) error {
	if len(violations) > 0 {
		return fmt.Errorf("%s: %d invariant violations, first %s: %s", p.tl.Name, len(violations), violations[0].Invariant, violations[0].Detail)
	}
	if len(res.Records) == 0 {
		return fmt.Errorf("%s: no records", p.tl.Name)
	}
	commits := 0
	for _, rec := range res.Records {
		if rec.WorstFraction < rec.Compromised-tol {
			return fmt.Errorf("%s seq %d: worst %v below compromised %v", p.tl.Name, rec.Seq, rec.WorstFraction, rec.Compromised)
		}
		if rec.Safe != (rec.Compromised <= res.Threshold) {
			return fmt.Errorf("%s seq %d: safe=%t at compromised %v, threshold %v", p.tl.Name, rec.Seq, rec.Safe, rec.Compromised, res.Threshold)
		}
		if rec.LiveViolation {
			return fmt.Errorf("%s seq %d: live safety violation", p.tl.Name, rec.Seq)
		}
		if rec.LiveCommits > commits {
			commits = rec.LiveCommits
		}
	}
	if last := res.Records[len(res.Records)-1]; last.Replicas != p.replicas {
		return fmt.Errorf("%s: %d replicas at the end, timeline joins less leaves %d", p.tl.Name, last.Replicas, p.replicas)
	}
	if p.tl.Live != nil && commits == 0 {
		return fmt.Errorf("%s: the live cluster never committed", p.tl.Name)
	}
	return nil
}

func runSweep(cfg runConfig) (result, error) {
	if cfg.trace {
		return sweepLayers(cfg)
	}
	// Each set-up starts from a collected heap, so the collector's debt
	// from earlier work does not land on one set-up and not another.
	runtime.GC()
	start := time.Now()
	pool, err := genPool(cfg.seed, nil)
	if err != nil {
		return result{}, err
	}
	setups := []float64{time.Since(start).Seconds()}
	// The set-ups made during the loop rebuild the same pool; their CPU
	// time is not the operations'.
	var setupCPU time.Duration
	again := &setupSchedule{n: sweepSetups, made: 1, seconds: cfg.seconds, run: func() error {
		c0, err := procCPU(os.Getpid())
		if err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		if _, err := genPool(cfg.seed, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		c1, err := procCPU(os.Getpid())
		setupCPU += c1 - c0
		return err
	}}
	invs := scenario.DefaultInvariants()
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return result{}, err
	}
	var (
		lat       []time.Duration
		fail      failures
		attempted int
	)
	steal := startSteal()
	begin := time.Now()
	for i := 0; time.Since(begin) < cfg.seconds; {
		// One round is one timeline of each profile, then the known
		// fault. Latencies are those of the operations that passed.
		for end := i + len(scenario.Profiles()); i < end; i++ {
			p := pool[i%len(pool)]
			t0 := time.Now()
			res, violations, err := scenario.CheckRun(p.tl.Def(), cfg.seed, invs)
			took := time.Since(t0)
			if err == nil {
				err = checkSweepRun(p, res, violations)
			}
			if err != nil {
				fail.add("%v", err)
			} else {
				lat = append(lat, took)
			}
		}
		attempted += len(scenario.Profiles()) + 1
		t0 := time.Now()
		if err := knownFaultOp(invs); err != nil {
			fail.add("%v", err)
		} else {
			lat = append(lat, time.Since(t0))
		}
		if err := again.due(time.Since(begin)); err != nil {
			return result{}, err
		}
	}
	steal.report()
	if err := again.due(cfg.seconds); err != nil {
		return result{}, err
	}
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return result{}, err
	}
	rss, err := procPeakRSSKB(os.Getpid())
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up seconds %.4f\n", setups)
	logTail(lat)
	m := endToEnd(setups, lat, cpu1-cpu0-setupCPU, rss)
	return result{Correct: true, Attempted: attempted, Failed: fail.n, Metrics: m}, nil
}
