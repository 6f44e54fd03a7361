package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/monitord"
	"repro/internal/scenario"
)

var (
	linux61   = []comp{{Class: "operating-system", Name: "linux", Version: "6.1"}}
	freebsd14 = []comp{{Class: "operating-system", Name: "freebsd", Version: "14.0"}}
)

// threeReplicas is the hand-computed case: a (linux, power 2, lag 0),
// b (linux, power 1, lag 24h), c (freebsd, power 1, lag 0) and one linux
// vulnerability open from 10h until its patch at 20h plus each lag.
func threeReplicas(severity float64) *model {
	m := newModel()
	for _, r := range []struct {
		id    string
		comps []comp
		power float64
		lag   time.Duration
	}{
		{"a", linux61, 2, 0},
		{"b", linux61, 1, 24 * time.Hour},
		{"c", freebsd14, 1, 0},
	} {
		if err := m.join(r.id, r.comps, r.power, r.lag); err != nil {
			panic(err)
		}
	}
	m.disclose(mVuln{ID: "v1", Class: "operating-system", Product: "linux", Disclosed: 10 * time.Hour, PatchAt: 20 * time.Hour, Severity: severity})
	return m
}

func TestModelHandComputed(t *testing.T) {
	m := threeReplicas(1)
	d := m.diversity()
	// Shares 3/4 (linux) and 1/4 (freebsd).
	wantH := -(0.75*math.Log2(0.75) + 0.25*math.Log2(0.25))
	if d.Members != 3 || d.Support != 2 || !near(d.Entropy, wantH) || d.MaxShare != 0.75 {
		t.Fatalf("diversity %+v, want 3 members, 2 configurations, H=%v, max share 0.75", d, wantH)
	}
	for _, tc := range []struct {
		at   time.Duration
		want float64
		ids  string
	}{
		{5 * time.Hour, 0, ""},        // not yet disclosed
		{15 * time.Hour, 0.75, "a,b"}, // a and b open
		{30 * time.Hour, 0.25, "b"},   // a patched at 20h, b lags to 44h
		{50 * time.Hour, 0, ""},       // both patched
	} {
		inj := m.inject(tc.at, 4, true)
		if inj.Total != tc.want || strings.Join(inj.Faults["v1"], ",") != tc.ids {
			t.Errorf("at %v: %v %v, want %v %q", tc.at, inj.Total, inj.Faults, tc.want, tc.ids)
		}
	}
	got := m.criticalInstants(100 * time.Hour)
	want := []time.Duration{0, 10 * time.Hour, 20 * time.Hour, 44 * time.Hour}
	if len(got) != len(want) {
		t.Fatalf("critical instants %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("critical instants %v, want %v", got, want)
		}
	}
	if w := m.bruteWorst(100 * time.Hour); w != 0.75 {
		t.Errorf("brute-force worst %v, want 0.75", w)
	}
}

func TestModelSeverityTakesHighestPower(t *testing.T) {
	m := threeReplicas(0.5)
	// At 15h two are open: ⌈0.5·2⌉ = 1 takes a (power 2).
	if inj := m.inject(15*time.Hour, 4, true); inj.Total != 0.5 || strings.Join(inj.Faults["v1"], ",") != "a" {
		t.Errorf("at 15h: %v %v, want 0.5 [a]", inj.Total, inj.Faults)
	}
	// At 30h only b is open; the take is at least one.
	if inj := m.inject(30*time.Hour, 4, true); inj.Total != 0.25 {
		t.Errorf("at 30h: %v, want 0.25", inj.Total)
	}
	// Equal powers: names ascending break the tie.
	if err := m.setPower("a", 1); err != nil {
		t.Fatal(err)
	}
	if inj := m.inject(15*time.Hour, 3, true); strings.Join(inj.Faults["v1"], ",") != "a" {
		t.Errorf("tie: %v, want [a]", inj.Faults)
	}
	if err := m.setPower("b", 5); err != nil {
		t.Fatal(err)
	}
	if inj := m.inject(15*time.Hour, 7, true); strings.Join(inj.Faults["v1"], ",") != "b" {
		t.Errorf("after the power change: %v, want [b]", inj.Faults)
	}
}

func TestModelDeduplicates(t *testing.T) {
	m := threeReplicas(1)
	// A second vulnerability on a's exact version hits a again.
	m.disclose(mVuln{ID: "v2", Class: "operating-system", Product: "linux", Version: "6.1", Disclosed: 10 * time.Hour, PatchAt: 20 * time.Hour, Severity: 1})
	if err := m.migrate("b", []comp{{Class: "operating-system", Name: "linux", Version: "5.15"}}); err != nil {
		t.Fatal(err)
	}
	inj := m.inject(15*time.Hour, 4, true)
	if inj.Total != 0.75 || strings.Join(inj.Faults["v2"], ",") != "a" {
		t.Errorf("got %v %v, want 0.75 with v2 on a only", inj.Total, inj.Faults)
	}
	if err := m.leave("a"); err != nil {
		t.Fatal(err)
	}
	if inj := m.inject(15*time.Hour, 2, true); inj.Total != 0.5 || len(inj.Faults) != 1 {
		t.Errorf("after a leaves: %v %v, want 0.5 from v1 alone", inj.Total, inj.Faults)
	}
}

// TestCheckCatchesPerturbedResponses serves the hand-computed tenant from
// an in-process monitord, checks the genuine answers pass, and checks
// that each perturbation of them is caught.
func TestCheckCatchesPerturbedResponses(t *testing.T) {
	ts := &tenantState{name: "hand", m: newModel()}
	ts.m.now = 15 * time.Hour
	ts.spec = monitord.TenantSpec{Virtual: true}
	ts.addReplica("a", linux61, 2, 0)
	ts.addReplica("b", linux61, 1, 24*time.Hour)
	ts.addReplica("c", freebsd14, 1, 0)
	ts.addVuln(mVuln{ID: "v1", Class: "operating-system", Product: "linux", Disclosed: 10 * time.Hour, PatchAt: 20 * time.Hour, Severity: 1})
	srv := monitord.NewServer()
	defer srv.Close()
	bodies, err := seedBodies([]*tenantState{ts})
	if err != nil {
		t.Fatal(err)
	}
	if err := seedTenants(inProcess{srv}, []*tenantState{ts}, bodies, 15*time.Hour); err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{"assessment", "worst", "report"} {
		o := &op{route: route, tenant: ts, brute: true}
		method, path, _ := o.request()
		st, body, _ := inProcess{srv}.do(method, path, nil)
		if err := check(o, st, body); err != nil {
			t.Fatalf("%s: genuine response rejected: %v", route, err)
		}
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		perturb := map[string]func(map[string]any){
			"entropy": func(d map[string]any) {
				if div, ok := d["diversity"].(map[string]any); ok {
					div["entropy"] = div["entropy"].(float64) + 1e-6
				} else {
					d["entropy"] = d["entropy"].(float64) + 1e-6
				}
			},
		}
		if route != "report" {
			perturb["fraction"] = func(d map[string]any) { d["totalFraction"] = d["totalFraction"].(float64) - 0.25 }
			perturb["safe"] = func(d map[string]any) { d["safe"] = !d["safe"].(bool) }
			perturb["victim"] = func(d map[string]any) {
				d["faults"].([]any)[0].(map[string]any)["compromised"] = []any{"a", "c"}
			}
		}
		for name, f := range perturb {
			var c map[string]any
			_ = json.Unmarshal(body, &c)
			f(c)
			bad, _ := json.Marshal(c)
			if err := check(o, st, bad); err == nil {
				t.Errorf("%s: perturbed %s passed the check", route, name)
			}
		}
	}
	if err := check(&op{route: "assessment", tenant: ts}, http.StatusNotFound, nil); err == nil {
		t.Error("a wrong status passed the check")
	}
}

// TestMixedRoundsAgreeWithTheProgram drives real serve-mixed rounds into
// an in-process server and expects the model to agree with every answer.
func TestMixedRoundsAgreeWithTheProgram(t *testing.T) {
	gen := newMixedGen(7)
	srv := monitord.NewServer()
	defer srv.Close()
	bodies, err := seedBodies(gen.tenants())
	if err != nil {
		t.Fatal(err)
	}
	if err := seedTenants(inProcess{srv}, gen.tenants(), bodies, gen.start()); err != nil {
		t.Fatal(err)
	}
	var fail failures
	for k := 0; k < 20; k++ {
		err := replayRound(gen, 1, &fail, func(_ *op, method, path string, body []byte) (int, []byte, error) {
			return inProcess{srv}.do(method, path, body)
		}, func(time.Duration) {})
		if err != nil {
			t.Fatal(err)
		}
	}
	if fail.n != 0 {
		t.Fatalf("%d of %d serve-mixed ops failed their check", fail.n, 20*len(mixedRound))
	}
}

func TestSweepChecks(t *testing.T) {
	p, _ := scenario.LookupProfile("churn-heavy")
	pool := pooled{profile: p.Name, tl: p.Generate(3, 0)}
	pool.replicas = expectReplicas(pool.tl)
	res, violations, err := scenario.CheckRun(pool.tl.Def(), 3, scenario.DefaultInvariants())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSweepRun(pool, res, violations); err != nil {
		t.Fatalf("genuine run rejected: %v", err)
	}
	res.Records[len(res.Records)/2].Safe = !res.Records[len(res.Records)/2].Safe
	if checkSweepRun(pool, res, violations) == nil {
		t.Error("a flipped safe flag passed")
	}
	res.Records[len(res.Records)/2].Safe = !res.Records[len(res.Records)/2].Safe
	pool.replicas++
	if checkSweepRun(pool, res, violations) == nil {
		t.Error("a wrong final replica count passed")
	}
}

// TestSetupSchedule checks that a run's set-ups fall due one per n-th of
// the run, and that the ones a short run leaves are all made at its end.
func TestSetupSchedule(t *testing.T) {
	var at []time.Duration
	var now time.Duration
	s := &setupSchedule{n: 4, made: 1, seconds: 40 * time.Second, run: func() error {
		at = append(at, now)
		return nil
	}}
	for now = 0; now < 25*time.Second; now += 3 * time.Second {
		if err := s.due(now); err != nil {
			t.Fatal(err)
		}
	}
	if want := []time.Duration{12 * time.Second, 21 * time.Second}; !reflect.DeepEqual(at, want) {
		t.Fatalf("set-ups at %v, want %v", at, want)
	}
	now = 40 * time.Second
	if err := s.due(now); err != nil {
		t.Fatal(err)
	}
	if len(at) != 3 || s.made != 4 {
		t.Fatalf("%d set-ups made in the loop, %d in all; want 3 and 4", len(at), s.made)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q does not run", w.Name)
		}
	}
	e2e := endToEnd([]float64{1}, []time.Duration{time.Millisecond}, time.Millisecond, 1024)
	if len(e2e) != len(bf.EndToEnd) {
		t.Errorf("%d end-to-end metrics printed, %d declared", len(e2e), len(bf.EndToEnd))
	}
	for _, m := range bf.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: printed unit %q, declared %q", m.Name, e2e[m.Name].Unit, m.Unit)
		}
	}
	pl := perLayerMetrics()
	if len(pl) != len(bf.PerLayer) {
		t.Fatalf("%d per-layer metrics printed, %d declared", len(pl), len(bf.PerLayer))
	}
	for i, m := range bf.PerLayer {
		if pl[i].name != m.Name || pl[i].unit != m.Unit {
			t.Errorf("per-layer %d: printed %s %s, declared %s %s", i, pl[i].name, pl[i].unit, m.Name, m.Unit)
		}
	}
}

// TestPoolSkipsGeneratorPanics builds a pool for a seed whose
// disclosure-storm family holds a timeline the generator rejects; the
// pool must still fill every slot with a valid timeline.
func TestPoolSkipsGeneratorPanics(t *testing.T) {
	if _, err := generate(scenario.GenProfile{Name: "no-generator"}, 1, 0); err == nil {
		t.Fatal("a panicking generator was reported as fine")
	}
	pool, err := genPool(33, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pool {
		if p.tl == nil || p.profile != scenario.ProfileNames()[i%5] {
			t.Fatalf("slot %d: %+v", i, p)
		}
		if err := p.tl.Validate(); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
}

// TestKnownFaultOpFollowsTheGenerator checks that the sweep's known-fault
// operation fails exactly when the generator panics at its address, so
// the failed count shows the fault while it lasts and clears once the
// generator is fixed.
func TestKnownFaultOpFollowsTheGenerator(t *testing.T) {
	p, ok := scenario.LookupProfile(knownFault.profile)
	if !ok {
		t.Fatalf("no profile %q", knownFault.profile)
	}
	panics := func() (r any) {
		defer func() { r = recover() }()
		p.Generate(knownFault.seed, knownFault.index)
		return nil
	}() != nil
	err := knownFaultOp(scenario.DefaultInvariants())
	if panics != (err != nil) {
		t.Fatalf("generator panics: %t; known-fault op error: %v", panics, err)
	}
}
