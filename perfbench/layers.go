package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/monitord"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/vuln"
)

// The traced run (--trace 1). It sends a workload's seeded operation
// sequence through three layer boundaries in lockstep, timing calls into
// public functions from the benchmark's own code:
//
//  1. over loopback to a cmd/monitord process (the wire);
//  2. through monitord.Server.ServeHTTP on a recorder, the handler wrapped
//     by the benchmark (the service layer);
//  3. straight into registry.Registry, core.Monitor, vuln.Catalog and
//     vuln.GroupInjector of an identically seeded tenant (the engine).
//
// A layer's self time is the median, per route, of each request's time
// in that layer less its time in the layer beneath.

// routes are the request kinds the per-route metrics cover: those of
// worst-churn, the daemon workload BENCHMARK.json declares. serve-mixed's
// report, disclose and advance requests are timed but not broken out.
var routes = []string{"assessment", "worst", "power", "migrate", "join", "leave"}

// readRoutes answer with a body worth measuring.
var readRoutes = []string{"assessment", "worst"}

// mutateKinds are the registry mutations.
var mutateKinds = []string{"power", "migrate", "join", "leave"}

// layerMetric is one per-layer metric's name and unit; perLayerMetrics
// is the full list, in the order BENCHMARK.json declares it.
type layerMetric struct{ name, unit string }

func perLayerMetrics() []layerMetric {
	var out []layerMetric
	for _, r := range routes {
		out = append(out, layerMetric{"wire.self_us." + r, "us"})
	}
	for _, r := range readRoutes {
		out = append(out, layerMetric{"wire.resp_kb." + r, "KB"})
	}
	for _, r := range routes {
		out = append(out, layerMetric{"monitord.handler_us." + r, "us"})
	}
	for _, r := range routes {
		out = append(out, layerMetric{"monitord.allocs." + r, "count"})
	}
	out = append(out, layerMetric{"runtime.alloc_kb_per_op", "KB"}, layerMetric{"runtime.gc_per_kop", "count"})
	for _, k := range mutateKinds {
		out = append(out, layerMetric{"registry.mutate_us." + k, "us"})
	}
	out = append(out,
		layerMetric{"registry.snapshot_us", "us"},
		layerMetric{"core.assess_us", "us"},
		layerMetric{"core.cache_hits", "1/kop"},
		layerMetric{"core.cache_deltas", "1/kop"},
		layerMetric{"core.cache_rebuilds", "1/kop"},
		layerMetric{"core.worst_us", "us"},
		layerMetric{"vuln.worst_window_us", "us"},
		layerMetric{"vuln.critical_instants", "count"},
		layerMetric{"vuln.inject_us", "us"},
		layerMetric{"scenario.generate_us", "us"},
		layerMetric{"scenario.roundtrip_us", "us"},
	)
	for _, p := range scenario.ProfileNames() {
		out = append(out, layerMetric{"scenario.run_us." + p, "us"})
	}
	out = append(out,
		layerMetric{"scenario.check_us", "us"},
		layerMetric{"scenario.records", "count"},
		layerMetric{"bftlive.commit_us", "us"},
		layerMetric{"simnet.msgs_per_commit", "count"},
		layerMetric{"simnet.dropped_per_commit", "count"},
		layerMetric{"bftlive.view_changes", "count"},
	)
	return out
}

// layerResult collects per-layer values; metrics a workload does not
// reach stay 0.
func layerResult(vals map[string]float64, attempted, failed int) result {
	m := make(map[string]metric)
	for _, lm := range perLayerMetrics() {
		m[lm.name] = metric{vals[lm.name], lm.unit}
	}
	return result{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}
}

// samples accumulates durations or sizes per key.
type samples map[string][]float64

func (s samples) add(key string, v float64) { s[key] = append(s[key], v) }

func (s samples) mean(key string) float64 { return mean(s[key]) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runtimeCounters are the cumulative heap allocation and GC counters.
// ReadMemStats flushes every per-P cache, so per-request deltas are
// exact; it stops the world, which is why it is read outside the timed
// call.
type runtimeCounters struct{ objects, bytes, gcs uint64 }

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC)}
}

// runLayers is the traced run of a daemon workload. Each operation goes
// through the three layers in lockstep — loopback, then ServeHTTP, then
// the direct calls — so a slow spell of the machine lands on all three
// and the differences stay meaningful.
func runLayers(cfg runConfig, newGen func() generator, group int) (result, error) {
	gen := newGen()
	bodies, err := seedBodies(gen.tenants())
	if err != nil {
		return result{}, err
	}
	d, err := startDaemon(cfg.daemon)
	if err != nil {
		return result{}, err
	}
	lb := newLoopback(d.base)
	srv := monitord.NewServer()
	eng := newDirect()
	res, err := traceLoop(cfg, gen, group, d, lb, srv, eng, bodies)
	eng.mgr.Close()
	srv.Close()
	lb.close()
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("monitord shutdown: %w", stopErr)
	}
	return res, err
}

func traceLoop(cfg runConfig, gen generator, group int, d *daemon, lb *loopback, srv *monitord.Server, eng *direct, bodies [][]byte) (result, error) {
	for _, tr := range []transport{lb, inProcess{srv}} {
		if err := seedTenants(tr, gen.tenants(), bodies, gen.start()); err != nil {
			return result{}, err
		}
	}
	if err := eng.seed(gen); err != nil {
		return result{}, err
	}
	w, err := startWatch(d.base, gen.tenants())
	if err != nil {
		return result{}, err
	}
	if w != nil {
		defer w.stop()
	}

	// Self times are medians of per-request differences between adjacent
	// layers: each request's cost cancels, and collector pauses drop out.
	wireSelf, handlerSelf, size, allocs := samples{}, samples{}, samples{}, samples{}
	var (
		handlerBytes uint64
		handlerTook  time.Duration
		route        string
	)
	wrapped := inProcess{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c0 := readRuntime()
		t0 := time.Now()
		srv.ServeHTTP(w, r)
		handlerTook = time.Since(t0)
		c1 := readRuntime()
		allocs.add(route, float64(c1.objects-c0.objects))
		handlerBytes += c1.bytes - c0.bytes
	})}

	var (
		fail   failures
		e2e    []time.Duration
		opWire time.Duration
	)
	r0 := readRuntime()
	begin := time.Now()
	for time.Since(begin) < cfg.seconds {
		err := replayRound(gen, group, &fail, func(o *op, method, path string, body []byte) (int, []byte, error) {
			t0 := time.Now()
			st, b, err := lb.do(method, path, body)
			wireTook := time.Since(t0)
			if err != nil {
				return st, b, err
			}
			opWire += wireTook
			size.add(o.route, float64(len(b))/1024)
			route = o.route
			if hst, hb, _ := wrapped.do(method, path, body); hst != st {
				return st, b, fmt.Errorf("in process: status %d, over loopback %d: %s", hst, st, hb)
			}
			innerTook, err := eng.do(o)
			if err != nil {
				return st, b, err
			}
			wireSelf.add(o.route, us(wireTook-handlerTook))
			handlerSelf.add(o.route, us(handlerTook-innerTook))
			return st, b, nil
		}, func(time.Duration) {
			e2e = append(e2e, opWire)
			opWire = 0
		})
		if err != nil {
			return result{}, err
		}
	}
	r1 := readRuntime()

	vals := eng.metrics()
	if n := float64(len(e2e)); n > 0 {
		vals["runtime.alloc_kb_per_op"] = float64(handlerBytes) / 1024 / n
		vals["runtime.gc_per_kop"] = float64(r1.gcs-r0.gcs) * 1000 / n
	}
	for _, r := range routes {
		if len(wireSelf[r]) > 0 {
			vals["wire.self_us."+r] = median(wireSelf[r])
			vals["monitord.handler_us."+r] = median(handlerSelf[r])
			vals["monitord.allocs."+r] = allocs.mean(r)
		}
	}
	for _, r := range readRoutes {
		if len(size[r]) > 0 {
			vals["wire.resp_kb."+r] = size.mean(r)
		}
	}
	logTraced("loopback", e2e)
	return layerResult(vals, len(e2e), fail.n), nil
}

// logTraced prints the traced run's own end-to-end figures, which
// README.md compares with an untraced run as the tracing overhead.
func logTraced(what string, lat []time.Duration) {
	if len(lat) == 0 {
		return
	}
	m := endToEnd(nil, lat, 0, 0)
	fmt.Fprintf(os.Stderr, "perfbench: traced %s: %d ops, p50 %.4f ms, p90 %.4f ms, %.1f ops/s\n",
		what, len(lat), m["latency_p50_ms"].Value, quantile(millis(lat), 0.90), m["throughput_per_s"].Value)
}

// toConfig converts model components for direct registry calls.
func toConfig(comps []comp) (config.Configuration, error) {
	out := make([]config.Component, len(comps))
	for i, c := range comps {
		class, err := config.ParseClass(c.Class)
		if err != nil {
			return config.Configuration{}, err
		}
		out[i] = config.Component{Class: class, Name: c.Name, Version: c.Version}
	}
	return config.New(out...)
}

// direct applies ops straight to registry, catalog and monitor calls on
// tenants seeded like the daemon's, timing each call.
type direct struct {
	mgr     *monitord.Manager
	tenants map[*tenantState]*monitord.Tenant
	mutated map[*tenantState]bool
	s       samples
	reads   int
}

func newDirect() *direct {
	return &direct{
		mgr:     monitord.NewManager(),
		tenants: make(map[*tenantState]*monitord.Tenant),
		mutated: make(map[*tenantState]bool),
		s:       samples{},
	}
}

func (e *direct) seed(gen generator) error {
	for _, ts := range gen.tenants() {
		t, err := e.mgr.Create(ts.name, ts.spec)
		if err != nil {
			return err
		}
		if _, err := t.AdvanceTo(gen.start()); err != nil {
			return err
		}
		e.tenants[ts] = t
	}
	return nil
}

// do runs one op, before the model applies it, and returns the time
// spent beneath the handler.
func (e *direct) do(o *op) (time.Duration, error) {
	t := e.tenants[o.tenant]
	id := registry.ReplicaID(o.rid)
	var cfg config.Configuration
	var v vuln.Vulnerability
	var err error
	switch o.route {
	case "migrate", "join":
		cfg, err = toConfig(o.comps)
	case "disclose":
		var class config.Class
		class, err = config.ParseClass(o.vuln.Class)
		v = vuln.Vulnerability{
			ID: vuln.ID(o.vuln.ID), Class: class, Product: o.vuln.Product, Version: o.vuln.Version,
			Disclosed: o.vuln.Disclosed, PatchAt: o.vuln.PatchAt, Severity: o.vuln.Severity,
		}
	}
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	switch o.route {
	case "power":
		err = t.Registry.SetPower(id, o.power)
	case "migrate":
		err = t.Registry.Migrate(id, cfg)
	case "join":
		err = t.Registry.JoinDeclared(id, cfg, o.power, o.lag)
	case "leave":
		err = t.Registry.Leave(id)
	case "disclose":
		err = t.Catalog.Add(v)
	case "advance":
		_, err = t.Advance(o.by)
	default:
		return e.read(o, t)
	}
	el := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("direct %s on %s: %w", o.route, o.tenant.name, err)
	}
	if o.route != "disclose" && o.route != "advance" {
		e.s.add("registry.mutate_us."+o.route, us(el))
		e.mutated[o.tenant] = true
	}
	return el, nil
}

// read serves an assessment, report or worst op: the registry snapshot
// (timed apart when a mutation made it new), then the monitor call.
func (e *direct) read(o *op, t *monitord.Tenant) (time.Duration, error) {
	e.reads++
	t0 := time.Now()
	snap, err := t.Registry.Snapshot(registry.DefaultWeighting)
	snapTook := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if e.mutated[o.tenant] {
		e.s.add("registry.snapshot_us", us(snapTook))
		e.mutated[o.tenant] = false
	}
	if o.route == "worst" {
		t0 = time.Now()
		_, err := t.Monitor.WorstAssessment(worstHorizon)
		took := time.Since(t0)
		if err != nil {
			return 0, err
		}
		e.s.add("core.worst_us", us(took))
		if o.brute {
			err = sampleInjector(t, snap, e.s)
		}
		return snapTook + took, err
	}
	t0 = time.Now()
	a, err := t.Monitor.Assess(t.Now())
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	e.s.add("core.assess_us", us(took))
	m := o.tenant.m
	if want := m.inject(m.now, m.totalPower(), false).Total; !near(a.Injection.TotalFraction, want) {
		return 0, fmt.Errorf("direct assess of %s: %v, model %v", o.tenant.name, a.Injection.TotalFraction, want)
	}
	return snapTook + took, nil
}

// metrics averages the engine samples and reports the monitors' cache
// counters per thousand reads.
func (e *direct) metrics() map[string]float64 {
	vals := map[string]float64{}
	for key := range e.s {
		vals[key] = e.s.mean(key)
	}
	var hits, deltas, rebuilds uint64
	for _, t := range e.tenants {
		st := t.Monitor.Stats()
		hits += st.Hits
		deltas += st.DeltaApplies
		rebuilds += st.Rebuilds
	}
	if e.reads > 0 {
		vals["core.cache_hits"] = float64(hits) * 1000 / float64(e.reads)
		vals["core.cache_deltas"] = float64(deltas) * 1000 / float64(e.reads)
		vals["core.cache_rebuilds"] = float64(rebuilds) * 1000 / float64(e.reads)
	}
	return vals
}

// sampleInjector times the worst-window sweep and a point injection on a
// grouped injector built from the tenant's current snapshot.
func sampleInjector(t *monitord.Tenant, snap *registry.Snapshot, s samples) error {
	gi, err := vuln.NewGroupInjector(t.Catalog, snap.BucketSpecs())
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := gi.WorstWindow(worstHorizon); err != nil {
		return err
	}
	s.add("vuln.worst_window_us", us(time.Since(t0)))
	s.add("vuln.critical_instants", float64(len(gi.CriticalInstants(worstHorizon))))
	t0 = time.Now()
	gi.Inject(t.Now())
	s.add("vuln.inject_us", us(time.Since(t0)))
	return nil
}

// liveCounter counts the live loop's wire traffic through the scenario
// scheduler's trace hook, installed at the run's first event (before the
// live cluster boots).
type liveCounter struct {
	installed  bool
	deliveries int // "deliver a->b" events: messages that crossed the wire
	broadcasts int // "self-deliver n" events: one per broadcast
}

func (c *liveCounter) AfterEvent(e *scenario.Engine, _ scenario.EventInfo, _ *scenario.Record) error {
	if !c.installed {
		c.installed = true
		e.Scheduler().SetTrace(func(ev sim.Event) {
			switch {
			case strings.HasPrefix(ev.Name, "deliver "):
				c.deliveries++
			case strings.HasPrefix(ev.Name, "self-deliver "):
				c.broadcasts++
			}
		})
	}
	return nil
}

// sweepLayers is the traced run of the sweep: the pool's generation and
// JSON round trip, then each pooled timeline run bare with scenario.Run
// (timed per profile, the live loop's wire traffic counted) and again
// with scenario.CheckRun, cycling the pool and attempting the known fault
// once a round as the end-to-end run does.
func sweepLayers(cfg runConfig) (result, error) {
	s := samples{}
	pool, err := genPool(cfg.seed, s)
	if err != nil {
		return result{}, err
	}
	invs := scenario.DefaultInvariants()
	var (
		fail                                  failures
		attempted                             int
		liveTime                              time.Duration
		commits, deliveries, sent, viewChange int
		liveRuns                              int
		runTotal, checkTotal                  time.Duration
		checks                                []time.Duration
	)
	begin := time.Now()
	for i := 0; time.Since(begin) < cfg.seconds; {
		for end := i + len(scenario.Profiles()); i < end; i++ {
			p := pool[i%len(pool)]
			lc := &liveCounter{}
			t0 := time.Now()
			res, err := scenario.Run(p.tl.Def(), cfg.seed, scenario.WithObserver(lc))
			runTook := time.Since(t0)
			if err != nil {
				return result{}, err
			}
			s.add("scenario.run_us."+p.profile, us(runTook))
			s.add("scenario.records", float64(len(res.Records)))
			t0 = time.Now()
			checked, violations, err := scenario.CheckRun(p.tl.Def(), cfg.seed, invs)
			checkTook := time.Since(t0)
			checks = append(checks, checkTook)
			attempted++
			if err == nil {
				err = checkSweepRun(p, checked, violations)
			}
			if err != nil {
				fail.add("%v", err)
			}
			runTotal += runTook
			checkTotal += checkTook
			if p.tl.Live == nil {
				continue
			}
			n, c, vc := 0, 0, 0
			for _, rec := range res.Records {
				if rec.Event == "live-start" {
					n = rec.Replicas
				}
				c = max(c, rec.LiveCommits)
				vc = max(vc, rec.ViewChanges)
			}
			liveRuns++
			liveTime += runTook
			commits += c
			deliveries += lc.deliveries
			sent += lc.broadcasts * (n - 1)
			viewChange += vc
		}
		attempted++
		if err := knownFaultOp(invs); err != nil {
			fail.add("%v", err)
		}
	}
	vals := map[string]float64{}
	for key := range s {
		vals[key] = s.mean(key)
	}
	if attempted > 0 {
		vals["scenario.check_us"] = us(checkTotal-runTotal) / float64(attempted)
	}
	if commits > 0 {
		vals["bftlive.commit_us"] = us(liveTime) / float64(commits)
		vals["simnet.msgs_per_commit"] = float64(deliveries) / float64(commits)
		vals["simnet.dropped_per_commit"] = float64(sent-deliveries) / float64(commits)
	}
	if liveRuns > 0 {
		vals["bftlive.view_changes"] = float64(viewChange) / float64(liveRuns)
	}
	logTraced("CheckRun", checks)
	return layerResult(vals, attempted, fail.n), nil
}
