package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// setupRepeats is how many times a daemon run sets up; setup_s is the
// median. The first set-up serves the timed loop; the others are spread
// over it (see setupSchedule), each on a daemon of its own.
const setupRepeats = 15

func runServeMixed(cfg runConfig) (result, error) {
	return runDaemonWorkload(cfg, func() generator { return newMixedGen(cfg.seed) }, 1)
}

func runWorstChurn(cfg runConfig) (result, error) {
	return runDaemonWorkload(cfg, func() generator { return newChurnGen(cfg.seed) }, 3)
}

// runDaemonWorkload measures a daemon workload end to end. group is the
// number of requests that make one operation.
func runDaemonWorkload(cfg runConfig, newGen func() generator, group int) (result, error) {
	if cfg.trace {
		return runLayers(cfg, newGen, group)
	}
	// The client needs one CPU at most; its own collector and a second
	// scheduler thread would compete with the daemon for the machine's
	// two. The model is small, so let its heap grow instead.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(400)
	gen := newGen()
	bodies, err := seedBodies(gen.tenants())
	if err != nil {
		return result{}, err
	}
	// setUp starts a daemon and seeds every tenant through the API.
	setUp := func() (*daemon, *loopback, float64, error) {
		start := time.Now()
		d, err := startDaemon(cfg.daemon)
		if err != nil {
			return nil, nil, 0, err
		}
		lb := newLoopback(d.base)
		if err := seedTenants(lb, gen.tenants(), bodies, gen.start()); err != nil {
			lb.close()
			d.kill()
			return nil, nil, 0, err
		}
		return d, lb, time.Since(start).Seconds(), nil
	}
	d, lb, took, err := setUp()
	if err != nil {
		return result{}, err
	}
	setups := []float64{took}
	again := &setupSchedule{n: setupRepeats, made: 1, seconds: cfg.seconds, run: func() error {
		d2, lb2, took, err := setUp()
		if err != nil {
			return err
		}
		lb2.close()
		setups = append(setups, took)
		return d2.stop()
	}}
	res, err := measureLoop(cfg, gen, group, d, lb, again)
	lb.close()
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("monitord shutdown: %w", stopErr)
	}
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up seconds %.4f\n", setups)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	return res, nil
}

// measureLoop runs whole rounds of the generator's operations over one
// connection until cfg.seconds have passed, with an SSE stream open on
// the watched tenant.
func measureLoop(cfg runConfig, gen generator, group int, d *daemon, lb *loopback, again *setupSchedule) (result, error) {
	w, err := startWatch(d.base, gen.tenants())
	if err != nil {
		return result{}, err
	}
	res, err := timedLoop(cfg, gen, group, d, lb, again)
	if w != nil {
		events, werr := w.stop()
		if werr == nil && events == 0 {
			werr = errors.New("the watch stream delivered no assessment")
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: watch stream:", werr)
			res.Correct = false
		}
	}
	return res, err
}

func timedLoop(cfg runConfig, gen generator, group int, d *daemon, lb *loopback, again *setupSchedule) (result, error) {
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return result{}, err
	}
	var (
		lat  []time.Duration
		fail failures
	)
	steal := startSteal()
	begin := time.Now()
	for time.Since(begin) < cfg.seconds {
		err := replayRound(gen, group, &fail, func(_ *op, method, path string, body []byte) (int, []byte, error) {
			return lb.do(method, path, body)
		}, func(took time.Duration) { lat = append(lat, took) })
		if err != nil {
			return result{}, err
		}
		if err := again.due(time.Since(begin)); err != nil {
			return result{}, err
		}
	}
	steal.report()
	if err := again.due(cfg.seconds); err != nil {
		return result{}, err
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return result{}, err
	}
	rss, err := procPeakRSSKB(d.pid())
	if err != nil {
		return result{}, err
	}
	logTail(lat)
	return result{
		Correct:   true,
		Attempted: len(lat),
		Failed:    fail.n,
		Metrics:   endToEnd(nil, lat, cpu1-cpu0, rss),
	}, nil
}

// watcher reads one SSE stream and counts its assessment events.
type watcher struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	events int
	err    error
}

// startWatch opens the SSE stream on the watched tenant, over a second
// connection, and returns once the stream's headers have arrived. It
// returns nil when no tenant is watched.
func startWatch(base string, tenants []*tenantState) (*watcher, error) {
	var name string
	for _, t := range tenants {
		if t.watch {
			name = t.name
		}
	}
	if name == "" {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &watcher{cancel: cancel, done: make(chan struct{})}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/tenants/"+name+"/watch", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch %s: status %d", name, resp.StatusCode)
	}
	go func() {
		defer close(w.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var a wireAssessment
			err := json.Unmarshal([]byte(data), &a)
			if err == nil && a.Tenant != name {
				err = fmt.Errorf("event for tenant %q on %q's stream", a.Tenant, name)
			}
			w.mu.Lock()
			w.events++
			if err != nil && w.err == nil {
				w.err = err
			}
			w.mu.Unlock()
		}
	}()
	return w, nil
}

// stop ends the stream, waits for the reader and returns the event count.
func (w *watcher) stop() (int, error) {
	w.cancel()
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.events, w.err
}

// replayRound runs one round of the generator through send, applying
// each accepted mutation to the model and then checking every reply of
// an operation against it. done receives each operation's summed
// request time.
func replayRound(gen generator, group int, fail *failures, send func(o *op, method, path string, body []byte) (int, []byte, error), done func(time.Duration)) error {
	thunks := gen.round()
	for i := 0; i < len(thunks); i += group {
		var (
			took time.Duration
			errs []error
		)
		type reply struct {
			o    *op
			st   int
			body []byte
		}
		var replies []reply
		for _, next := range thunks[i : i+group] {
			o := next()
			method, path, body := o.request()
			t0 := time.Now()
			st, b, err := send(o, method, path, body)
			took += time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s %s: %w", method, path, err)
			}
			if o.mutates() && st == o.wantStatus() {
				if err := o.apply(); err != nil {
					return err
				}
			}
			replies = append(replies, reply{o, st, b})
		}
		for _, r := range replies {
			if err := check(r.o, r.st, r.body); err != nil {
				errs = append(errs, err)
			}
		}
		if len(errs) > 0 {
			fail.add("%v", errors.Join(errs...))
		}
		done(took)
	}
	return nil
}
